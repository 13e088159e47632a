package cluster

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"riscvmem/internal/run"
	"riscvmem/internal/service"
)

// timingValued matches the samples whose values depend on how long the host
// took: histogram sums, and bucket counts (which bucket a duration falls in).
var timingValued = regexp.MustCompile(`(?m)^(simd_\w+_(?:sum|bucket)(?:\{[^}]*\})?) \S+$`)

func checkMetricsGolden(t *testing.T, name string, write func(*strings.Builder) error) {
	t.Helper()
	var b strings.Builder
	if err := write(&b); err != nil {
		t.Fatalf("%s: WriteMetrics: %v", name, err)
	}
	got := timingValued.ReplaceAllString(b.String(), "$1 *")
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: /metrics text changed; got:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestMetricsGolden holds the exposition text of a standalone service, a
// coordinator and a worker, each after one fixed two-cell batch, to the bytes
// scrapers and dashboards were built against: names, HELP and TYPE lines,
// label sets, order and number formatting.
func TestMetricsGolden(t *testing.T) {
	req := service.BatchRequest{
		Devices: []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{
			run.MustParseWorkloadSpec("stream:test=COPY,elems=1024,reps=1"),
			run.MustParseWorkloadSpec("transpose:variant=Naive,n=64"),
		},
	}
	ctx := context.Background()

	alone := service.New(service.Options{Parallelism: 1})
	if _, err := alone.Batch(ctx, req); err != nil {
		t.Fatal(err)
	}
	checkMetricsGolden(t, "metrics_standalone.txt", func(b *strings.Builder) error { return alone.WriteMetrics(b) })

	coord := New(Options{Logf: t.Logf})
	defer coord.Close()
	svc := service.New(service.Options{Parallelism: 1})
	worker, err := NewWorker(WorkerOptions{ID: "w1", Service: svc, API: coord, PollWait: 250 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	workerCtx, stop := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- worker.Run(workerCtx) }()
	waitForWorkers(t, coord, 1)
	if _, err := coord.Batch(ctx, req); err != nil {
		t.Fatal(err)
	}
	checkMetricsGolden(t, "metrics_coordinator.txt", func(b *strings.Builder) error { return coord.Service().WriteMetrics(b) })
	// The worker's page as cmd/simd serves it: its service's, then the agent's.
	checkMetricsGolden(t, "metrics_worker.txt", func(b *strings.Builder) error {
		if err := svc.WriteMetrics(b); err != nil {
			return err
		}
		return worker.WriteMetrics(b)
	})
	stop()
	if err := <-done; err != nil {
		t.Errorf("worker Run: %v", err)
	}
}
