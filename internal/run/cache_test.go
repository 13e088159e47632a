package run

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"riscvmem/internal/kernels/blur"
	"riscvmem/internal/kernels/stream"
	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/leakcheck"
	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
)

// countingKeyed is a Keyed workload that counts real executions, so tests
// can assert how many simulations the cache allowed through.
type countingKeyed struct {
	name  string
	key   string
	runs  *atomic.Int64
	delay time.Duration
	fail  *atomic.Int64 // fail while > 0, decrementing per run
}

func (w countingKeyed) Name() string     { return w.name }
func (w countingKeyed) CacheKey() string { return w.key }

func (w countingKeyed) Run(ctx context.Context, m *sim.Machine) (Result, error) {
	n := w.runs.Add(1)
	if w.delay > 0 {
		time.Sleep(w.delay)
	}
	if w.fail != nil && w.fail.Add(-1) >= 0 {
		return Result{}, errors.New("transient failure")
	}
	return Result{Seconds: 42, Cycles: float64(n)}, nil
}

// keyedBatch is a small mixed batch of built-in Keyed workloads on two
// devices, with each cell duplicated once.
func keyedBatch() []Job {
	var jobs []Job
	for _, spec := range []machine.Spec{machine.MangoPiD1(), machine.VisionFive()} {
		for _, w := range []Workload{
			Stream(stream.Config{Test: stream.Triad, Elems: 1500, Reps: 2}),
			Transpose(transpose.Config{N: 128, Variant: transpose.Blocking}),
			Blur(blur.Config{W: 48, H: 32, C: 3, F: 5, Variant: blur.OneD}),
		} {
			jobs = append(jobs, Job{Device: spec, Workload: w}, Job{Device: spec, Workload: w})
		}
	}
	return jobs
}

// TestCacheRerunSimulatesNothing is the acceptance test for memoization:
// re-running an identical batch through the same Runner performs zero new
// simulations, and the replayed Results are bit-identical to the first
// run's — cycles, seconds, bandwidths and every Mem counter.
func TestCacheRerunSimulatesNothing(t *testing.T) {
	jobs := keyedBatch()
	r := New(Options{Parallelism: 4})
	first, err := r.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	_, coldMisses := r.CacheStats()
	if want := uint64(len(jobs) / 2); coldMisses != want {
		t.Fatalf("cold run simulated %d cells, want %d (one per distinct cell)", coldMisses, want)
	}
	again, err := r.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := r.CacheStats()
	if misses != coldMisses {
		t.Errorf("re-run simulated %d new cells, want 0", misses-coldMisses)
	}
	if want := uint64(len(jobs) + len(jobs)/2); hits != want {
		t.Errorf("hits = %d, want %d", hits, want)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Errorf("job %d: cached replay diverges:\n got %+v\nwant %+v", i, again[i], first[i])
		}
	}
}

// TestCacheBitIdenticalToUncached pins that memoization only skips work: a
// cached Runner and a cache-disabled Runner produce identical Results.
func TestCacheBitIdenticalToUncached(t *testing.T) {
	jobs := keyedBatch()
	cached, err := New(Options{Parallelism: 4}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(Options{Parallelism: 4, DisableCache: true}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cached {
		if cached[i] != cold[i] {
			t.Errorf("job %d: cached %+v != uncached %+v", i, cached[i], cold[i])
		}
	}
}

// TestCacheKeyedOnDeviceIdentity guards the cache against the same bug the
// pool already defends against: a mutated preset (same Name, same workload)
// must never be served the base preset's cached result.
func TestCacheKeyedOnDeviceIdentity(t *testing.T) {
	w := Transpose(transpose.Config{N: 128, Variant: transpose.Naive})
	base := machine.MangoPiD1()
	jobs := []Job{
		{Device: base, Workload: w},
		{Device: base.WithMaxInflight(1), Workload: w},
		{Device: base.WithL2(128 << 10), Workload: w},
		{Device: base, Workload: w}, // only this one may hit
	}
	r := New(Options{Parallelism: 1})
	results, err := r.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := r.CacheStats()
	if misses != 3 || hits != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/3", hits, misses)
	}
	if results[1] == results[0] || results[2] == results[0] {
		t.Error("mutated device produced the base device's result")
	}
	if results[3] != results[0] {
		t.Error("identical cell replay diverged")
	}
}

// TestCacheSingleflight runs many identical keyed jobs concurrently; the
// in-flight deduplication must let exactly one simulate while the rest wait
// and share its result.
func TestCacheSingleflight(t *testing.T) {
	var runs atomic.Int64
	w := countingKeyed{name: "test/singleflight", key: "sf", runs: &runs, delay: 20 * time.Millisecond}
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Device: machine.MangoPiD1(), Workload: w}
	}
	results, err := New(Options{Parallelism: 8}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("%d executions for 16 identical concurrent jobs, want 1", n)
	}
	for i, r := range results {
		if r != results[0] {
			t.Errorf("job %d result %+v != leader %+v", i, r, results[0])
		}
	}
}

// TestCacheDoesNotMemoizeErrors: a failed keyed job must not poison the
// cache — the next identical job retries and can succeed.
func TestCacheDoesNotMemoizeErrors(t *testing.T) {
	var runs, failures atomic.Int64
	failures.Store(1) // fail exactly the first execution
	w := countingKeyed{name: "test/retry", key: "retry", runs: &runs, fail: &failures}
	r := New(Options{Parallelism: 1})
	if _, err := r.RunOne(context.Background(), machine.MangoPiD1(), w); err == nil {
		t.Fatal("first run did not fail")
	}
	res, err := r.RunOne(context.Background(), machine.MangoPiD1(), w)
	if err != nil {
		t.Fatalf("retry still failed: %v", err)
	}
	if res.Seconds != 42 {
		t.Errorf("retry result %+v", res)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("%d executions, want 2 (error must not be cached)", n)
	}
	// The success IS cached.
	if _, err := r.RunOne(context.Background(), machine.MangoPiD1(), w); err != nil || runs.Load() != 2 {
		t.Errorf("cached success re-simulated (runs=%d, err=%v)", runs.Load(), err)
	}
}

// TestUnkeyedWorkloadsBypassCache: workloads that do not implement Keyed
// always simulate.
func TestUnkeyedWorkloadsBypassCache(t *testing.T) {
	count := 0
	w := NewFunc("test/unkeyed", func(ctx context.Context, m *sim.Machine) (Result, error) {
		count++
		return Result{Seconds: 1}, nil
	})
	r := New(Options{Parallelism: 1})
	for i := 0; i < 3; i++ {
		if _, err := r.RunOne(context.Background(), machine.MangoPiD1(), w); err != nil {
			t.Fatal(err)
		}
	}
	if count != 3 {
		t.Errorf("unkeyed workload ran %d times, want 3", count)
	}
	if hits, misses := r.CacheStats(); hits != 0 || misses != 0 {
		t.Errorf("unkeyed jobs touched the cache: hits=%d misses=%d", hits, misses)
	}
}

// TestPanicConvertedToJobError: a panicking workload must not crash the
// process (the worker goroutine recovers) and must surface as a per-job
// error while the rest of the batch completes.
func TestPanicConvertedToJobError(t *testing.T) {
	jobs := []Job{
		{Device: machine.MangoPiD1(), Workload: Transpose(transpose.Config{N: 64})},
		{Device: machine.MangoPiD1(), Workload: NewFunc("test/panic",
			func(ctx context.Context, m *sim.Machine) (Result, error) { panic("kernel bug") })},
		{Device: machine.MangoPiD1(), Workload: Transpose(transpose.Config{N: 128})},
	}
	results, err := New(Options{Parallelism: 2}).Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("panicking job reported no error")
	}
	if !strings.Contains(err.Error(), "test/panic on MangoPi") ||
		!strings.Contains(err.Error(), "workload panicked: kernel bug") {
		t.Errorf("error %q lacks panic identification", err)
	}
	if results[0].Seconds <= 0 || results[2].Seconds <= 0 {
		t.Error("jobs sharing the batch with a panicking job lost their results")
	}
}

// TestPanickedMachineIsDiscarded: a machine a workload panicked on may hold
// arbitrary partial state and must never return to the pool.
func TestPanickedMachineIsDiscarded(t *testing.T) {
	r := New(Options{Parallelism: 1})
	spec := machine.MangoPiD1()
	var poisoned *sim.Machine
	_, err := r.RunOne(context.Background(), spec, NewFunc("test/poison",
		func(ctx context.Context, m *sim.Machine) (Result, error) {
			poisoned = m
			m.MustNewF64(64) // dirty the machine, then die mid-run
			panic("mid-run corruption")
		}))
	if err == nil {
		t.Fatal("expected a panic-derived error")
	}
	r.mu.Lock()
	pooled := 0
	for _, ms := range r.pool {
		pooled += len(ms)
		for _, m := range ms {
			if m == poisoned {
				t.Error("panicked machine was re-pooled")
			}
		}
	}
	r.mu.Unlock()
	if pooled != 0 {
		t.Errorf("%d machines pooled after a panic, want 0", pooled)
	}
	// The runner still works: the next job constructs a fresh machine.
	res, err := r.RunOne(context.Background(), spec, Transpose(transpose.Config{N: 64}))
	if err != nil || res.Seconds <= 0 {
		t.Errorf("runner unusable after a panic: %+v, %v", res, err)
	}
}

// TestPanicOnSimulatedCoreIsJobError: a custom workload panics inside a
// multi-core region, on core 1 of VisionFive while core 0 is parked
// mid-stream. The panic must reach the job's own recover — a per-job error,
// the rest of the batch intact — instead of dying on a goroutine nothing
// guards, the machine must not be re-pooled, and no coroutine of the
// abandoned region may outlive the job.
func TestPanicOnSimulatedCoreIsJobError(t *testing.T) {
	defer leakcheck.Check(t)()
	var poisoned *sim.Machine
	bad := NewFunc("test/panic-on-core-1",
		func(ctx context.Context, m *sim.Machine) (Result, error) {
			poisoned = m
			a := m.MustNewF64(1 << 14)
			m.Run(2, func(c *sim.Core) {
				if c.ID() == 1 {
					c.TouchRange(a.Addr(0), 8, 1<<10, false)
					panic("kernel bug on core 1")
				}
				c.TouchRange(a.Addr(0), 8, len(a.Data), false)
			})
			return Result{Seconds: 1}, nil
		})
	dev := machine.VisionFive()
	r := New(Options{Parallelism: 1})
	results, errs := r.RunAll(context.Background(), []Job{
		{Device: dev, Workload: Transpose(transpose.Config{N: 64})},
		{Device: dev, Workload: bad},
		{Device: dev, Workload: Transpose(transpose.Config{N: 128})},
	})
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "workload panicked: kernel bug on core 1") {
		t.Errorf("panicking job error = %v, want a recovered panic", errs[1])
	}
	if errs[0] != nil || errs[2] != nil || results[0].Seconds <= 0 || results[2].Seconds <= 0 {
		t.Errorf("jobs sharing the batch lost their rows: %+v, %v", results, errs)
	}
	r.mu.Lock()
	for _, ms := range r.pool {
		for _, m := range ms {
			if m == poisoned {
				t.Error("machine abandoned mid-region was re-pooled")
			}
		}
	}
	r.mu.Unlock()
	// One machine serves the serial batch: pooled after job 0, poisoned by
	// job 1, and job 2's replacement is the only one left.
	if n := r.PoolSize(); n != 1 {
		t.Errorf("PoolSize() = %d, want 1", n)
	}
}

// TestCancellationErrorsCollapsed: cancelling a large batch must report one
// context error with a skipped-job count, not one per remaining job.
func TestCancellationErrorsCollapsed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every job is skipped
	jobs := make([]Job, 1000)
	for i := range jobs {
		jobs[i] = Job{Device: machine.MangoPiD1(), Workload: NewFunc(
			fmt.Sprintf("test/collapse-%d", i),
			func(ctx context.Context, m *sim.Machine) (Result, error) {
				return Result{Seconds: 1}, nil
			})}
	}
	_, err := New(Options{Parallelism: 4}).Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	msg := err.Error()
	if got := strings.Count(msg, "context canceled"); got != 1 {
		t.Errorf("%d copies of the context error in %q, want 1", got, msg)
	}
	if !strings.Contains(msg, "1000 jobs skipped") {
		t.Errorf("error %q lacks the skipped-job count", msg)
	}
	// A real per-job failure must still be reported alongside the collapsed
	// cancellation.
	boom := errors.New("boom")
	jobs[0] = Job{Device: machine.MangoPiD1(), Workload: NewFunc("test/collapse-real",
		func(ctx context.Context, m *sim.Machine) (Result, error) { return Result{}, boom })}
	ctx2, cancel2 := context.WithCancel(context.Background())
	first := true
	jobs[1] = Job{Device: machine.MangoPiD1(), Workload: NewFunc("test/collapse-trigger",
		func(ctx context.Context, m *sim.Machine) (Result, error) {
			if first {
				first = false
				cancel2()
			}
			return Result{Seconds: 1}, nil
		})}
	_, err = New(Options{Parallelism: 1}).Run(ctx2, jobs)
	if !errors.Is(err, boom) || !errors.Is(err, context.Canceled) {
		t.Errorf("joined error %v lost a component", err)
	}
}

// blockingKeyed blocks in Run until release is closed, then surfaces its
// context's error (so a cancelled leader fails with a ctx error while the
// flight is still joined by waiters from other batches).
type blockingKeyed struct {
	runs    *atomic.Int64
	entered chan struct{} // closed... no: signalled once per entry
	release chan struct{}
}

func (w blockingKeyed) Name() string     { return "test/cross-batch" }
func (w blockingKeyed) CacheKey() string { return "cross-batch" }

func (w blockingKeyed) Run(ctx context.Context, m *sim.Machine) (Result, error) {
	w.runs.Add(1)
	select {
	case w.entered <- struct{}{}:
	default:
	}
	<-w.release
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return Result{Seconds: 7}, nil
}

// TestWaiterSurvivesLeaderCancellation: when two batches share a Runner and
// the flight leader's batch is cancelled, a waiter from the *other* batch
// must not inherit the leader's context error — it retries under its own
// live context.
func TestWaiterSurvivesLeaderCancellation(t *testing.T) {
	var runs atomic.Int64
	w := blockingKeyed{runs: &runs, entered: make(chan struct{}, 2), release: make(chan struct{})}
	r := New(Options{Parallelism: 1})
	job := Job{Device: machine.MangoPiD1(), Workload: w}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := r.Run(leaderCtx, []Job{job})
		leaderDone <- err
	}()
	<-w.entered // the leader holds the flight, blocked in Run

	waiterDone := make(chan struct {
		res []Result
		err error
	}, 1)
	go func() {
		res, err := r.Run(context.Background(), []Job{job})
		waiterDone <- struct {
			res []Result
			err error
		}{res, err}
	}()
	// Give the waiter time to join the flight, then cancel only the
	// leader's batch and let it observe the cancellation.
	time.Sleep(20 * time.Millisecond)
	cancelLeader()
	close(w.release)

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader batch error = %v, want context.Canceled", err)
	}
	got := <-waiterDone
	if got.err != nil {
		t.Fatalf("waiter batch inherited the leader's cancellation: %v", got.err)
	}
	if got.res[0].Seconds != 7 {
		t.Errorf("waiter result = %+v", got.res[0])
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("%d executions, want 2 (leader cancelled, waiter retried)", n)
	}
	// Nothing was ever served from the cache: the join that ended in a
	// retry must not count as a hit.
	if hits, misses := r.CacheStats(); hits != 0 || misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 0/2", hits, misses)
	}
}

// TestWrappedContextErrorsNotCollapsed: a workload that ran and failed with
// an error that merely wraps a context sentinel (its own internal timeout,
// say) is a real per-job failure — it must keep its identified entry, not be
// folded into the "jobs skipped" bucket.
func TestWrappedContextErrorsNotCollapsed(t *testing.T) {
	mk := func(i int) Workload {
		return NewFunc(fmt.Sprintf("test/inner-timeout-%d", i),
			func(ctx context.Context, m *sim.Machine) (Result, error) {
				return Result{}, fmt.Errorf("upstream fetch: %w", context.DeadlineExceeded)
			})
	}
	jobs := []Job{
		{Device: machine.MangoPiD1(), Workload: mk(0)},
		{Device: machine.MangoPiD1(), Workload: mk(1)},
	}
	_, err := New(Options{Parallelism: 1}).Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("failing batch returned nil error")
	}
	msg := err.Error()
	if strings.Contains(msg, "skipped") {
		t.Errorf("ran-and-failed jobs mislabeled as skipped: %q", msg)
	}
	for i := range jobs {
		if want := fmt.Sprintf("test/inner-timeout-%d", i); !strings.Contains(msg, want) {
			t.Errorf("error %q lost the entry for %s", msg, want)
		}
	}
}
