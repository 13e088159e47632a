package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"riscvmem/internal/leakcheck"
	"riscvmem/internal/run"
)

// fastBatch is a small request that completes in milliseconds.
func fastBatch(workloads ...string) *BatchRequest {
	specs := make([]run.WorkloadSpec, len(workloads))
	for i, w := range workloads {
		specs[i] = run.MustParseWorkloadSpec(w)
	}
	return &BatchRequest{Devices: []string{"MangoPi"}, Workloads: specs}
}

// pollJob polls until the job reaches a terminal state and returns the
// final snapshot.
func pollJob(t *testing.T, svc *Service, id string) JobStatus {
	t.Helper()
	var js JobStatus
	waitFor(t, "job "+id+" to finish", func() bool {
		var ok bool
		js, ok = svc.JobAfter(id, 0)
		if !ok {
			t.Fatalf("job %s vanished mid-poll", id)
		}
		return js.State.terminal()
	})
	return js
}

// TestJobLifecycle pins the happy path: submit → queued snapshot with an ID
// → poll to done → full response, timestamps, rows and counts in place.
func TestJobLifecycle(t *testing.T) {
	defer leakcheck.Check(t)()
	svc := New(Options{})
	js, err := svc.SubmitJob(context.Background(), JobRequest{
		Batch: fastBatch("stream:test=COPY,elems=1024,reps=1", "transpose:variant=Naive,n=64"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if js.ID == "" || js.State.terminal() || js.Kind != "batch" || js.Total != 2 {
		t.Fatalf("submit snapshot: %+v", js)
	}

	final := pollJob(t, svc, js.ID)
	if final.State != JobDone {
		t.Fatalf("final state = %s (%s), want done", final.State, final.Error)
	}
	if final.Done != 2 || len(final.Rows) != 2 {
		t.Errorf("done=%d rows=%d, want 2/2", final.Done, len(final.Rows))
	}
	if final.Response == nil || len(final.Response.Results) != 2 {
		t.Fatalf("final response missing: %+v", final.Response)
	}
	// Response rows are request-ordered regardless of completion order.
	if final.Response.Results[0].Workload != "stream/COPY" ||
		final.Response.Results[1].Workload != "transpose/Naive" {
		t.Errorf("response order: %q, %q", final.Response.Results[0].Workload,
			final.Response.Results[1].Workload)
	}
	if final.Started == nil || final.Finished == nil || final.Finished.Before(*final.Started) {
		t.Errorf("timestamps: started=%v finished=%v", final.Started, final.Finished)
	}

	// The listing includes the job, rows elided.
	list := svc.Jobs()
	if len(list) != 1 || list[0].ID != js.ID || len(list[0].Rows) != 0 {
		t.Errorf("Jobs() = %+v, want one row-elided entry", list)
	}
}

// TestJobRowsStreamInCompletionOrder pins the streaming contract: Rows
// accumulate as jobs complete — observable mid-run — in the Runner's
// serialized OnProgress order, not request order.
func TestJobRowsStreamInCompletionOrder(t *testing.T) {
	name, started, release := armSlow()
	svc := New(Options{Parallelism: 2})
	// Request order: [slow, fast]. The fast job completes first, so it must
	// be the first accumulated row while the slow one is still running.
	js, err := svc.SubmitJob(context.Background(), JobRequest{Batch: &BatchRequest{
		Devices: []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{
			{Kernel: name},
			run.MustParseWorkloadSpec("stream:test=COPY,elems=1024,reps=1"),
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // slow job is executing

	var mid JobStatus
	waitFor(t, "first row to stream", func() bool {
		mid, _ = svc.JobAfter(js.ID, 0)
		return len(mid.Rows) >= 1
	})
	if mid.State != JobRunning || mid.Done != 1 {
		t.Errorf("mid-run snapshot: state=%s done=%d, want running/1", mid.State, mid.Done)
	}
	if mid.Rows[0].Workload != "stream/COPY" {
		t.Errorf("first streamed row = %q, want the fast job (completion order)", mid.Rows[0].Workload)
	}

	close(release)
	final := pollJob(t, svc, js.ID)
	if final.State != JobDone || len(final.Rows) != 2 {
		t.Fatalf("final: state=%s rows=%d (%s)", final.State, len(final.Rows), final.Error)
	}
	if final.Rows[1].Workload != name {
		t.Errorf("second streamed row = %q, want the slow job", final.Rows[1].Workload)
	}
	// Request-ordered response vs completion-ordered rows.
	if final.Response.Results[0].Workload != name {
		t.Errorf("response row 0 = %q, want request order", final.Response.Results[0].Workload)
	}
}

// TestCancelQueuedJob: cancelling a job still waiting for an admission slot
// removes it from the queue without it ever running.
func TestCancelQueuedJob(t *testing.T) {
	defer leakcheck.Check(t)()
	svc := New(Options{MaxInFlight: 1})
	release, err := svc.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	js, err := svc.SubmitJob(context.Background(), JobRequest{
		Batch: fastBatch("stream:test=COPY,elems=1024,reps=1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to join the queue", func() bool { return svc.queued.Load() == 1 })

	if _, ok := svc.CancelJob(js.ID); !ok {
		t.Fatal("CancelJob: unknown job")
	}
	final := pollJob(t, svc, js.ID)
	if final.State != JobCancelled {
		t.Errorf("cancelled-while-queued state = %s, want cancelled", final.State)
	}
	if final.Started != nil || len(final.Rows) != 0 {
		t.Errorf("queued job ran anyway: %+v", final)
	}
	release()

	// Unknown IDs are reported, not invented.
	if _, ok := svc.CancelJob("no-such-job"); ok {
		t.Error("CancelJob invented a job")
	}
}

// TestCancelRunningJob: cancelling a running job cancels its context; a
// cooperative workload returns promptly and the job lands cancelled with
// its partial state intact.
func TestCancelRunningJob(t *testing.T) {
	name, started, release := armSlow()
	defer close(release)
	svc := New(Options{})
	js, err := svc.SubmitJob(context.Background(), JobRequest{Batch: &BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{{Kernel: name}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // running

	if _, ok := svc.CancelJob(js.ID); !ok {
		t.Fatal("CancelJob: unknown job")
	}
	final := pollJob(t, svc, js.ID)
	if final.State != JobCancelled {
		t.Errorf("cancelled-while-running state = %s, want cancelled", final.State)
	}
	// Cancelling a terminal job is a no-op that still returns the snapshot.
	again, ok := svc.CancelJob(js.ID)
	if !ok || again.State != JobCancelled {
		t.Errorf("re-cancel: %v %+v", ok, again)
	}
}

// TestSubmitValidatesSynchronously: a malformed job fails the submit call
// itself with a ValidationError — never a later poll.
func TestSubmitValidatesSynchronously(t *testing.T) {
	svc := New(Options{})
	ctx := context.Background()
	var valErr *ValidationError
	cases := []JobRequest{
		{}, // neither batch nor sweep
		{Batch: fastBatch("stream:test=COPY,elems=1024,reps=1"),
			Sweep: &SweepRequest{Device: "MangoPi"}}, // both
		{Batch: &BatchRequest{Devices: []string{"Atari"},
			Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("stream/TRIAD")}}},
		{Sweep: &SweepRequest{Device: "MangoPi", Axes: []string{"warp=9"},
			Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("stream/TRIAD")}}},
	}
	for i, req := range cases {
		if _, err := svc.SubmitJob(ctx, req); !errors.As(err, &valErr) {
			t.Errorf("case %d: err = %v, want ValidationError", i, err)
		}
	}
	if n := len(svc.Jobs()); n != 0 {
		t.Errorf("%d jobs stored from invalid submissions, want 0", n)
	}
}

// TestJobTimeoutFails: an async job cut off by its own timeout lands
// failed — not done — even though the batch path absorbs the context error
// into rows.
func TestJobTimeoutFails(t *testing.T) {
	name, _, _ := armSlow()
	svc := New(Options{})
	js, err := svc.SubmitJob(context.Background(), JobRequest{Batch: &BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{{Kernel: name}},
		Options:   RequestOptions{TimeoutMS: 30},
	}})
	if err != nil {
		t.Fatal(err)
	}
	final := pollJob(t, svc, js.ID)
	if final.State != JobFailed {
		t.Fatalf("timed-out job state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Errorf("job error = %q, want a deadline error", final.Error)
	}
	// The partial (all-rows-errored) response survives for post-mortems.
	if final.Response == nil || len(final.Response.Results) != 1 {
		t.Errorf("failed job lost its partial response: %+v", final.Response)
	}
}

// TestSweepJob: the async path carries sweeps too — rows stream raw, the
// final response has the cells' base-relative deltas.
func TestSweepJob(t *testing.T) {
	svc := New(Options{})
	js, err := svc.SubmitJob(context.Background(), JobRequest{Sweep: &SweepRequest{
		Device:    "MangoPi",
		Axes:      []string{"l2=base,128KiB"},
		Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("transpose:variant=Naive,n=64")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if js.Kind != "sweep" || js.Total != 2 {
		t.Fatalf("submit snapshot: %+v", js)
	}
	final := pollJob(t, svc, js.ID)
	if final.State != JobDone || len(final.Rows) != 2 {
		t.Fatalf("final: %+v", final)
	}
	for _, row := range final.Response.Results {
		if len(row.Cell) != 1 || row.Speedup <= 0 {
			t.Errorf("sweep response row missing cell/deltas: %+v", row)
		}
	}
}

// TestJobTTL: finished jobs are garbage-collected after their TTL; polling
// itself triggers the lazy GC.
func TestJobTTL(t *testing.T) {
	svc := New(Options{JobTTL: 20 * time.Millisecond})
	js, err := svc.SubmitJob(context.Background(), JobRequest{
		Batch: fastBatch("stream:test=COPY,elems=1024,reps=1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	pollJob(t, svc, js.ID)
	waitFor(t, "job to be garbage-collected", func() bool {
		_, ok := svc.JobAfter(js.ID, 0)
		return !ok
	})
	if n := len(svc.Jobs()); n != 0 {
		t.Errorf("Jobs() = %d after TTL, want 0", n)
	}
}

// TestJobStoreEviction: a full store evicts its oldest finished job for a
// new submission, but refuses when every stored job is still live.
func TestJobStoreEviction(t *testing.T) {
	defer leakcheck.Check(t)()
	svc := New(Options{MaxStoredJobs: 2, JobTTL: time.Hour})
	ctx := context.Background()
	first, err := svc.SubmitJob(ctx, JobRequest{Batch: fastBatch("stream:test=COPY,elems=1024,reps=1")})
	if err != nil {
		t.Fatal(err)
	}
	pollJob(t, svc, first.ID)
	second, err := svc.SubmitJob(ctx, JobRequest{Batch: fastBatch("stream:test=COPY,elems=1024,reps=1")})
	if err != nil {
		t.Fatal(err)
	}
	pollJob(t, svc, second.ID)

	// Store full (2/2 finished): the third submission evicts the oldest.
	third, err := svc.SubmitJob(ctx, JobRequest{Batch: fastBatch("stream:test=COPY,elems=1024,reps=1")})
	if err != nil {
		t.Fatalf("submission into a full-but-finished store: %v", err)
	}
	pollJob(t, svc, third.ID)
	if _, ok := svc.JobAfter(first.ID, 0); ok {
		t.Error("oldest finished job survived eviction")
	}
	if _, ok := svc.JobAfter(second.ID, 0); !ok {
		t.Error("newer finished job evicted instead of the oldest")
	}

	// All-live store: submission fails with an overload, evicting nothing.
	live := New(Options{MaxStoredJobs: 1, MaxInFlight: 1})
	release, err := live.admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := live.SubmitJob(ctx, JobRequest{Batch: fastBatch("stream:test=COPY,elems=1024,reps=1")})
	if err != nil {
		t.Fatal(err)
	}
	_, err = live.SubmitJob(ctx, JobRequest{Batch: fastBatch("stream:test=COPY,elems=1024,reps=1")})
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("all-live store submission error = %v, want ErrOverloaded", err)
	}
	release()
	pollJob(t, live, blocked.ID)
}
