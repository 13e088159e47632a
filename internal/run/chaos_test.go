// The runner chaos suite: fault-injected acquisition failures, panicking
// workloads and transient flakes driven through the ordinary Runner paths,
// asserting the robustness invariants — batches survive, poisoned machines
// never re-pool, errors are never served from the cache, nothing leaks.
package run_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"riscvmem/internal/faultinject"
	"riscvmem/internal/faultinject/chaos"
	"riscvmem/internal/leakcheck"
	"riscvmem/internal/machine"
	"riscvmem/internal/run"
)

var errInjected = errors.New("chaos: injected acquire failure")

// TestChaosTransientAcquireFailure: a machine-acquisition failure fails
// only the job that hit it — and is never memoized, so an identical keyed
// job retries and succeeds.
func TestChaosTransientAcquireFailure(t *testing.T) {
	faultinject.Reset() // drop activation counts from earlier tests
	defer faultinject.Reset()
	defer leakcheck.Check(t)()
	faultinject.Set(faultinject.RunnerAcquire, faultinject.FailTimes(1, errInjected))

	r := run.New(run.Options{Parallelism: 1})
	flaky := chaos.NewFlaky("acquire-victim", 0) // keyed, intrinsically healthy

	_, err := r.RunOne(context.Background(), machine.MangoPiD1(), flaky)
	if !errors.Is(err, errInjected) {
		t.Fatalf("first run error = %v, want the injected failure", err)
	}
	if flaky.Runs() != 0 {
		t.Fatalf("workload executed %d times despite the acquire failure", flaky.Runs())
	}

	// Same cache key, second attempt: the failure must not have been cached.
	res, err := r.RunOne(context.Background(), machine.MangoPiD1(), flaky)
	if err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if flaky.Runs() != 1 || res.Seconds <= 0 {
		t.Errorf("retry did not actually execute: runs=%d res=%+v", flaky.Runs(), res)
	}
	if n := faultinject.Fired(faultinject.RunnerAcquire); n != 2 {
		t.Errorf("acquire seam fired %d times, want 2", n)
	}
}

// TestChaosPanicIsolated: a workload panic fails its own job, poisons its
// machine, and leaves the rest of the batch — and the runner — intact.
func TestChaosPanicIsolated(t *testing.T) {
	defer leakcheck.Check(t)()
	r := run.New(run.Options{Parallelism: 1})
	dev := machine.MangoPiD1()
	jobs := []run.Job{
		{Device: dev, Workload: chaos.Panic("boom")},
		{Device: dev, Workload: chaos.Slow("ok-1", 0)},
		{Device: dev, Workload: chaos.Slow("ok-2", 0)},
	}
	results, errs := r.RunAll(context.Background(), jobs)
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "workload panicked") {
		t.Fatalf("panic job error = %v, want a recovered panic", errs[0])
	}
	for i := 1; i < 3; i++ {
		if errs[i] != nil || results[i].Workload == "" {
			t.Errorf("job %d after the panic: err=%v res=%+v", i, errs[i], results[i])
		}
	}
	// The panicked machine was mutated mid-run and must be discarded: only
	// the machine the two healthy serial jobs shared is pooled.
	if n := r.PoolSize(); n != 1 {
		t.Errorf("PoolSize() = %d, want 1 (panicked machine poisoned)", n)
	}
	// The runner still serves fresh work on the same device.
	if _, err := r.RunOne(context.Background(), dev, chaos.Slow("after", 0)); err != nil {
		t.Errorf("run after panic: %v", err)
	}
}

// TestChaosFlakyNeverCached: a keyed workload that fails transiently must
// re-execute on the next identical job — the memo cache may only ever serve
// successes.
func TestChaosFlakyNeverCached(t *testing.T) {
	defer leakcheck.Check(t)()
	r := run.New(run.Options{})
	flaky := chaos.NewFlaky("flaky-once", 1)
	dev := machine.MangoPiD1()

	if _, err := r.RunOne(context.Background(), dev, flaky); err == nil ||
		!strings.Contains(err.Error(), "transient failure") {
		t.Fatalf("first run error = %v, want the transient failure", err)
	}
	res, err := r.RunOne(context.Background(), dev, flaky)
	if err != nil {
		t.Fatalf("second run: %v (the failure was cached)", err)
	}
	if flaky.Runs() != 2 {
		t.Fatalf("workload executed %d times, want 2 (no cache hit for the error)", flaky.Runs())
	}
	// Third run: the success IS cached.
	res3, err := r.RunOne(context.Background(), dev, flaky)
	if err != nil || flaky.Runs() != 2 {
		t.Errorf("third run: err=%v runs=%d, want a cache hit", err, flaky.Runs())
	}
	if res3 != res {
		t.Errorf("cached result differs: %+v != %+v", res3, res)
	}
	hits, misses := r.CacheStats()
	if hits != 1 || misses != 2 {
		t.Errorf("cache stats = %d hits / %d misses, want 1/2", hits, misses)
	}
}
