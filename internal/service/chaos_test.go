// The service chaos suite: injected admission and machine-acquisition
// faults, context-deaf workloads and a full drain-under-fire drill, driven
// through the public Service surface. Asserts the end-to-end robustness
// invariants — errors never cached, deadlines honored against stalls,
// poisoned machines never re-pooled, drain bounded, no goroutine leaks.
package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"riscvmem/internal/faultinject"
	"riscvmem/internal/faultinject/chaos"
	"riscvmem/internal/leakcheck"
	"riscvmem/internal/run"
)

// registerStall registers a chaos.Stall workload (context-deaf unless
// honorCtx) under a name unique to this call and returns the name with the
// arming channels. The registry is append-only and process-wide, so each
// run of a test (go test -count=N) needs a name of its own.
func registerStall(t *testing.T, prefix string, honorCtx bool) (name string, started chan struct{}, release chan struct{}) {
	t.Helper()
	name = fmt.Sprintf("%s-%d", prefix, stalls.Add(1))
	started = make(chan struct{}, 64)
	release = make(chan struct{})
	if err := run.Register(chaos.Stall(name, started, release, honorCtx)); err != nil {
		t.Fatal(err)
	}
	return name, started, release
}

// stalls numbers the workloads registerStall has registered.
var stalls atomic.Int64

// TestChaosAdmitFault: a fault injected at the admission seam surfaces as
// the request's error with its classification intact — proving the seam
// sits on the real request path.
func TestChaosAdmitFault(t *testing.T) {
	faultinject.Reset() // drop activation counts from earlier tests
	defer faultinject.Reset()
	faultinject.Set(faultinject.ServiceAdmit,
		faultinject.AlwaysFail(&OverloadError{RetryAfter: 2 * time.Second, reason: ErrOverloaded}))

	svc := New(Options{})
	_, err := svc.Batch(context.Background(), BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("stream:test=COPY,elems=1024,reps=1")},
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("injected admit fault surfaced as %v, want ErrOverloaded", err)
	}
	var over *OverloadError
	if !errors.As(err, &over) || over.RetryAfter != 2*time.Second {
		t.Errorf("fault lost its classification: %#v", err)
	}
	if n := faultinject.Fired(faultinject.ServiceAdmit); n != 1 {
		t.Errorf("admit seam fired %d times, want 1", n)
	}
}

// TestChaosTransientAcquire: a transient machine-acquisition failure fails
// one row of one request — and the identical follow-up request succeeds,
// because the shared memo cache never stores errors.
func TestChaosTransientAcquire(t *testing.T) {
	defer faultinject.Reset()
	defer leakcheck.Check(t)()
	errInjected := errors.New("chaos: injected acquire failure")
	faultinject.Set(faultinject.RunnerAcquire, faultinject.FailTimes(1, errInjected))

	svc := New(Options{})
	req := BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("stream:test=COPY,elems=1024,reps=1")},
	}
	resp, err := svc.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error == "" || !strings.Contains(resp.Results[0].Error, "injected") {
		t.Fatalf("faulted row = %+v, want the injected failure", resp.Results[0])
	}

	resp, err = svc.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" || resp.Results[0].Seconds <= 0 {
		t.Fatalf("retry row = %+v, want a clean re-simulation (error must not be cached)", resp.Results[0])
	}
	if resp.Cache.RequestMisses != 1 {
		t.Errorf("retry caused %d simulations, want 1 (fresh, not cached)", resp.Cache.RequestMisses)
	}
}

// TestChaosDeadlineAgainstStall: an async job containing a context-deaf
// workload still honors its deadline — the healthy row lands first in
// OnProgress order, the stalled run is abandoned, its machine poisoned, and
// the job reads failed. The healthy job is a gate released only once both
// jobs run, so each holds a machine of its own: a healthy job finishing
// before the stall starts would hand the stall its pooled machine.
func TestChaosDeadlineAgainstStall(t *testing.T) {
	assertNoLeak := leakcheck.Check(t)
	stall, started, release := registerStall(t, "svc-chaos-stall-deadline", false)
	healthy, healthyStarted, healthyRelease := registerStall(t, "svc-chaos-healthy", true)
	svc := New(Options{Parallelism: 2})

	js, err := svc.SubmitJob(context.Background(), JobRequest{Batch: &BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{{Kernel: stall}, {Kernel: healthy}},
		Options:   RequestOptions{TimeoutMS: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	<-healthyStarted
	close(healthyRelease)

	final := pollJob(t, svc, js.ID)
	if final.State != JobFailed || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("job against a stall: state=%s err=%q, want failed/deadline", final.State, final.Error)
	}
	// Partial rows are consistent with OnProgress order: the healthy job
	// completed first; the stalled one carries the abandonment error.
	if len(final.Rows) != 2 || final.Done != 2 {
		t.Fatalf("rows=%d done=%d, want 2/2", len(final.Rows), final.Done)
	}
	if final.Rows[0].Error != "" || final.Rows[0].Workload != healthy {
		t.Errorf("first streamed row = %+v, want the healthy completion", final.Rows[0])
	}
	if !strings.Contains(final.Rows[1].Error, "abandoned") {
		t.Errorf("stalled row = %+v, want an abandonment error", final.Rows[1])
	}
	if got := svc.Runner().Abandoned(); got != 1 {
		t.Errorf("Abandoned() = %d, want 1", got)
	}
	// The healthy job's machine is pooled; the abandoned one is poisoned.
	if n := svc.Runner().PoolSize(); n != 1 {
		t.Errorf("PoolSize() = %d, want 1", n)
	}
	close(release)
	assertNoLeak()
}

// TestChaosDrainUnderFire is the full drill: a running context-deaf job and
// a queued job at drain time, a budget that expires, and the service must
// come out bounded — both jobs cancelled and reported, the stalled machine
// poisoned, the abandonment logged, and no goroutine left behind.
func TestChaosDrainUnderFire(t *testing.T) {
	assertNoLeak := leakcheck.Check(t)
	stall, started, release := registerStall(t, "svc-chaos-stall-drain", false)
	var logs logBuffer
	svc := New(Options{MaxInFlight: 1, Logf: logs.logf})

	stalled, err := svc.SubmitJob(context.Background(), JobRequest{Batch: &BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{{Kernel: stall}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // running, holding the only slot
	queued, err := svc.SubmitJob(context.Background(), JobRequest{
		Batch: fastBatch("stream:test=COPY,elems=1024,reps=1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second job to queue", func() bool { return svc.queued.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	rep := svc.Drain(ctx)
	if rep.Clean || len(rep.Abandoned) != 2 {
		t.Fatalf("drain report: %+v, want 2 abandoned jobs", rep)
	}
	if !logs.contains("abandoning job " + stalled.ID) {
		t.Errorf("stalled job's abandonment not logged: %v", logs.lines)
	}

	// Cancellation propagates asynchronously; both jobs land cancelled.
	for _, id := range []string{stalled.ID, queued.ID} {
		if final := pollJob(t, svc, id); final.State != JobCancelled {
			t.Errorf("job %s state = %s, want cancelled", id, final.State)
		}
	}
	if got := svc.Runner().Abandoned(); got != 1 {
		t.Errorf("Abandoned() = %d, want 1 (the context-deaf run)", got)
	}
	// The stalled machine is poisoned and the queued job never ran: the
	// pool must be empty.
	if n := svc.Runner().PoolSize(); n != 0 {
		t.Errorf("PoolSize() = %d, want 0", n)
	}
	close(release)
	assertNoLeak()
}
