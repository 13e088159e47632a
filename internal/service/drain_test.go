package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"riscvmem/internal/leakcheck"
	"riscvmem/internal/run"
)

// logBuffer is a concurrency-safe Logf sink for asserting on operational
// log lines.
type logBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (b *logBuffer) logf(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

func (b *logBuffer) contains(substr string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.lines {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

// TestDrainRejectsNewWork: once draining, every entry point refuses with
// ErrDraining and the HTTP surface reports 503 — health endpoint included,
// so load balancers stop routing.
func TestDrainRejectsNewWork(t *testing.T) {
	svc := New(Options{})
	if !svc.StartDrain() {
		t.Fatal("StartDrain did not flip the state")
	}
	if svc.StartDrain() {
		t.Error("second StartDrain claimed to flip the state again")
	}
	if !svc.Draining() {
		t.Fatal("Draining() = false after StartDrain")
	}

	ctx := context.Background()
	req := BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("stream:test=COPY,elems=1024,reps=1")},
	}
	if _, err := svc.Batch(ctx, req); !errors.Is(err, ErrDraining) {
		t.Errorf("Batch error = %v, want ErrDraining", err)
	}
	if _, err := svc.Sweep(ctx, SweepRequest{Device: "MangoPi",
		Workloads: req.Workloads}); !errors.Is(err, ErrDraining) {
		t.Errorf("Sweep error = %v, want ErrDraining", err)
	}
	if _, err := svc.SubmitJob(ctx, JobRequest{Batch: &req}); !errors.Is(err, ErrDraining) {
		t.Errorf("SubmitJob error = %v, want ErrDraining", err)
	}

	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"devices":["MangoPi"],"workloads":["stream:test=COPY,elems=1024,reps=1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining POST /v1/batch = %d, want 503", resp.StatusCode)
	}
	// Polling existing jobs stays available while draining.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("draining GET /v1/jobs = %d, want 200", resp.StatusCode)
	}
	// An idle service drains instantly.
	rep := svc.Drain(context.Background())
	if !rep.Clean || len(rep.Abandoned) != 0 {
		t.Errorf("idle drain report: %+v", rep)
	}
}

// TestDrainWaitsForAdmittedWork: a drain lets running synchronous requests
// AND queued async jobs finish — draining closes the front door, not the
// pipeline — and reports clean once everything lands.
func TestDrainWaitsForAdmittedWork(t *testing.T) {
	assertNoLeak := leakcheck.Check(t)
	name, started, release := armSlow()
	svc := New(Options{MaxInFlight: 1})

	// A slow synchronous request holds the only slot...
	syncDone := make(chan error, 1)
	go func() {
		_, err := svc.Batch(context.Background(), BatchRequest{
			Devices:   []string{"MangoPi"},
			Workloads: []run.WorkloadSpec{{Kernel: name}},
		})
		syncDone <- err
	}()
	<-started
	// ...and an async job waits in the admission queue behind it.
	js, err := svc.SubmitJob(context.Background(), JobRequest{
		Batch: fastBatch("stream:test=COPY,elems=1024,reps=1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "async job to queue", func() bool { return svc.queued.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan DrainReport, 1)
	go func() { drained <- svc.Drain(ctx) }()

	// The drain must wait: work is still admitted.
	select {
	case rep := <-drained:
		t.Fatalf("drain returned with work in flight: %+v", rep)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	rep := <-drained
	if !rep.Clean || len(rep.Abandoned) != 0 || rep.InFlight != 0 {
		t.Fatalf("drain report: %+v, want clean", rep)
	}
	if err := <-syncDone; err != nil {
		t.Errorf("in-flight request during drain: %v", err)
	}
	// The queued job ran to completion during the drain.
	final, ok := svc.JobAfter(js.ID, 0)
	if !ok || final.State != JobDone {
		t.Errorf("queued job after drain: ok=%v %+v", ok, final)
	}
	assertNoLeak()
}

// TestDrainAbandonsAtBudget: when the drain budget expires, remaining jobs
// are cancelled, reported in the DrainReport, and logged — shutdown is
// bounded even with work stuck in the pipeline.
func TestDrainAbandonsAtBudget(t *testing.T) {
	assertNoLeak := leakcheck.Check(t)
	name, started, release := armSlow()
	var logs logBuffer
	svc := New(Options{Logf: logs.logf})

	js, err := svc.SubmitJob(context.Background(), JobRequest{Batch: &BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{{Kernel: name}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is running and will not finish on its own

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	rep := svc.Drain(ctx)
	if rep.Clean {
		t.Fatal("drain reported clean despite a stuck job")
	}
	if len(rep.Abandoned) != 1 || rep.Abandoned[0].ID != js.ID {
		t.Fatalf("abandoned = %+v, want job %s", rep.Abandoned, js.ID)
	}
	if !logs.contains("abandoning job " + js.ID) {
		t.Errorf("abandonment not logged: %v", logs.lines)
	}

	// The cancellation propagates: the cooperative workload unwinds and the
	// job lands cancelled.
	final := pollJob(t, svc, js.ID)
	if final.State != JobCancelled {
		t.Errorf("abandoned job state = %s, want cancelled", final.State)
	}
	close(release)
	assertNoLeak()
}
