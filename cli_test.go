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
	bin := buildCommands(t, "./cmd/kernel", "./cmd/paperfigs")
	for _, tc := range []struct {
		cmd  string
		args []string
	}{
		{"kernel", []string{"-format", "xml", "warp:speed=9"}},
		{"kernel", []string{"-format", "xml", "-device", "MangoPi", "-axis", "maxinflight=1,base", "warp:speed=9"}},
		{"paperfigs", []string{"-format", "xml", "-device", "PDP-11"}},
	} {
		stdout, msg, err := runCommand(bin, tc.cmd, tc.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Errorf("%s %v: err = %v, want a non-zero exit", tc.cmd, tc.args, err)
		}
		if !strings.Contains(msg, `unknown format "xml"`) ||
			strings.Contains(msg, "warp") || strings.Contains(msg, "PDP-11") || stdout != "" {
			t.Errorf("%s %v: stdout %q, stderr %q; want only the format error", tc.cmd, tc.args, stdout, msg)
		}
	}
}

// TestKernelAxis runs a two-point axis over one cell: the table is the
// sweep's, one axis column then the workload and its base-relative
// numbers, the mutated row first and the base row at exactly 1.000 of
// itself. Then it gives -axis each combination it cannot honour: each
// must fail before any job runs, print nothing on stdout, and name the
// flag or spec key to use instead.
func TestKernelAxis(t *testing.T) {
	bin := buildCommands(t, "./cmd/kernel")
	stdout, stderr, err := runCommand(bin, "kernel", "-device", "MangoPi", "-axis", "maxinflight=1,base",
		"-format", "csv", "transpose:variant=Naive,n=64")
	if err != nil {
		t.Fatalf("kernel -axis: %v\n%s", err, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != 3 || lines[0] != "maxinflight,Workload,Seconds,Speedup,Bandwidth,BW×base" {
		t.Fatalf("kernel -axis printed\n%s\nwant the sweep header and two rows", stdout)
	}
	for i, point := range []string{"1", "base"} {
		f := strings.Split(lines[i+1], ",")
		if len(f) != 6 || f[0] != point || f[1] != "transpose/Naive" {
			t.Errorf("row %d = %q, want maxinflight=%s running transpose/Naive", i+1, lines[i+1], point)
		}
	}
	if f := strings.Split(lines[2], ","); len(f) == 6 && (f[3] != "1.000" || f[5] != "1.000") {
		t.Errorf("base row %q: want speedup and bandwidth ratio 1.000", lines[2])
	}

	for _, tc := range []struct {
		args []string
		fix  string
	}{
		{[]string{"-axis", "maxinflight=1,base", "transpose:variant=Naive,n=64"}, "-device NAME"},
		{[]string{"-device", "MangoPi", "-stats", "-axis", "maxinflight=1,base", "transpose:variant=Naive,n=64"}, "without -axis"},
		{[]string{"-device", "MangoPi", "-axis", "maxinflight=1,base", "stream/TRIAD"}, "elems=N"},
	} {
		stdout, stderr, err := runCommand(bin, "kernel", tc.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || stdout != "" || !strings.Contains(stderr, tc.fix) {
			t.Errorf("kernel %v: err %v, stdout %q, stderr %q; want a non-zero exit naming %q",
				tc.args, err, stdout, stderr, tc.fix)
		}
	}
}

// buildCommands builds the packages into a temporary directory and returns
// it.
func buildCommands(t *testing.T, pkgs ...string) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	bin := t.TempDir()
	build := exec.Command(goTool, append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runCommand runs a built command and returns its stdout and stderr.
func runCommand(bin, cmd string, args ...string) (stdout, stderr string, err error) {
	var out, errOut bytes.Buffer
	c := exec.Command(filepath.Join(bin, cmd), args...)
	c.Stdout, c.Stderr = &out, &errOut
	err = c.Run()
	return out.String(), errOut.String(), err
}
