package run_test

import (
	"context"
	"errors"
	"testing"

	"riscvmem/internal/faultinject"
	"riscvmem/internal/faultinject/chaos"
	"riscvmem/internal/leakcheck"
	"riscvmem/internal/machine"
	"riscvmem/internal/run"
)

// TestChaosPersistFailureNeverFailsRequest pins the fail-soft contract of
// the disk tier's write path: when every persist attempt fails, requests
// still succeed, the failure is counted, the result still serves from the
// memory tier — and only a process restart pays the re-simulation.
func TestChaosPersistFailureNeverFailsRequest(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	defer leakcheck.Check(t)()
	errPersist := errors.New("chaos: injected persist failure")
	faultinject.Set(faultinject.MemoPersist, faultinject.AlwaysFail(errPersist))

	dir := t.TempDir()
	store, err := run.OpenStore(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	r := run.New(run.Options{Parallelism: 1, Store: store})
	w := chaos.NewFlaky("persist-victim", 0) // keyed, intrinsically healthy

	first, err := r.RunOne(context.Background(), machine.MangoPiD1(), w)
	if err != nil {
		t.Fatalf("request failed because the persist failed: %v", err)
	}
	ts := r.TierStats()
	if ts.DiskWriteErrors == 0 {
		t.Error("injected persist failure was not counted in DiskWriteErrors")
	}
	if ts.DiskWrites != 0 {
		t.Errorf("disk writes = %d, want 0 (every persist was injected to fail)", ts.DiskWrites)
	}

	// The memory tier is unaffected: an identical request is a hit, not a
	// re-simulation, and returns the identical result.
	again, err := r.RunOne(context.Background(), machine.MangoPiD1(), w)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Errorf("memory-tier replay diverges:\n got %+v\nwant %+v", again, first)
	}
	if hits, misses := r.CacheStats(); hits != 1 || misses != 1 {
		t.Errorf("hits, misses = %d, %d; want 1, 1", hits, misses)
	}

	// Nothing reached disk, so a restarted process re-simulates — and with
	// the fault cleared, its persist succeeds and the store heals.
	faultinject.Set(faultinject.MemoPersist, nil)
	store2, err := run.OpenStore(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	r2 := run.New(run.Options{Parallelism: 1, Store: store2})
	if _, err := r2.RunOne(context.Background(), machine.MangoPiD1(), w); err != nil {
		t.Fatal(err)
	}
	if _, misses := r2.CacheStats(); misses != 1 {
		t.Errorf("restarted process misses = %d, want 1 (nothing was persisted)", misses)
	}
	if ts2 := r2.TierStats(); ts2.DiskWrites != 1 {
		t.Errorf("healed persist wrote %d entries, want 1", ts2.DiskWrites)
	}
}
