package riscvmem_test

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFormatFailsBeforeAnyJob gives each table-printing command a
// mistyped -format beside an argument that building its jobs would reject.
// The format error must be the one reported: the command refused before it
// looked at a workload or a device, let alone simulated one.
func TestBadFormatFailsBeforeAnyJob(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator),
		"./cmd/kernel", "./cmd/sweep", "./cmd/paperfigs")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		cmd  string
		args []string
	}{
		{"kernel", []string{"-format", "xml", "warp:speed=9"}},
		{"sweep", []string{"-format", "xml", "-workloads", "warp:speed=9"}},
		{"paperfigs", []string{"-format", "xml", "-device", "PDP-11"}},
	} {
		var stdout, stderr bytes.Buffer
		c := exec.Command(filepath.Join(bin, tc.cmd), tc.args...)
		c.Stdout, c.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := c.Run(); !errors.As(err, &exit) {
			t.Errorf("%s %v: err = %v, want a non-zero exit", tc.cmd, tc.args, err)
		}
		if msg := stderr.String(); !strings.Contains(msg, `unknown format "xml"`) ||
			strings.Contains(msg, "warp") || strings.Contains(msg, "PDP-11") || stdout.Len() > 0 {
			t.Errorf("%s %v: stdout %q, stderr %q; want only the format error", tc.cmd, tc.args, stdout.String(), msg)
		}
	}
}
