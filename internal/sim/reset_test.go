package sim

import (
	"testing"

	"riscvmem/internal/machine"
)

// resetProbe is a small but hierarchy-exercising workload: strided and
// sequential traffic over two arrays on every core, enough to dirty caches,
// TLBs, prefetch state, MSHRs and DRAM queues. It returns the region result
// and the machine's statistics.
func resetProbe(t *testing.T, m *Machine) (Result, Summary) {
	t.Helper()
	const n = 1 << 14
	a, err := m.NewF64(n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.NewF64(n)
	if err != nil {
		t.Fatal(err)
	}
	cores := m.Spec().Cores
	res := m.ParallelRange(cores, n, Static, 0, func(c *Core, lo, hi int) {
		for i := lo; i < hi; i++ {
			a.Store(c, i, b.Load(c, i)+1)
		}
		// A strided sweep to defeat the L0 line filter and train prefetch.
		for i := lo; i < hi; i += 17 {
			b.Store(c, i, a.Load(c, i))
		}
	})
	return res, m.Stats()
}

// TestResetEquivalence pins the Runner's pooling contract on all four
// presets: a machine that ran a workload and was Reset must reproduce a
// fresh machine's run bit for bit — same region cycles, same per-core
// times, same memory-system counters, same allocator state.
func TestResetEquivalence(t *testing.T) {
	for _, spec := range machine.All() {
		fresh, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		wantRes, wantStats := resetProbe(t, fresh)

		reused, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		resetProbe(t, reused) // dirty every structure
		reused.Reset()
		if reused.clock != 0 || reused.used != 0 {
			t.Errorf("%s: Reset left clock=%v allocated=%d", spec.Name, reused.clock, reused.used)
		}
		if stats := reused.Stats(); stats != (Summary{}) {
			t.Errorf("%s: Reset left statistics %+v", spec.Name, stats)
		}

		gotRes, gotStats := resetProbe(t, reused)
		if gotRes.Cycles != wantRes.Cycles {
			t.Errorf("%s: reset run %v cycles, fresh run %v", spec.Name, gotRes.Cycles, wantRes.Cycles)
		}
		for i := range wantRes.PerCore {
			if gotRes.PerCore[i] != wantRes.PerCore[i] {
				t.Errorf("%s core %d: reset %v, fresh %v", spec.Name, i, gotRes.PerCore[i], wantRes.PerCore[i])
			}
		}
		if gotStats != wantStats {
			t.Errorf("%s: reset stats diverge:\n got %+v\nwant %+v", spec.Name, gotStats, wantStats)
		}
	}
}

// TestResetRewindsAllocator checks that Reset frees simulated RAM: a
// working set that fills most of the device must be allocatable again after
// each Reset, and addresses repeat exactly.
func TestResetRewindsAllocator(t *testing.T) {
	m, err := New(machine.MangoPiD1())
	if err != nil {
		t.Fatal(err)
	}
	elems := int(m.Spec().RAMBytes / 2 / 8)
	first, err := m.NewF64(elems)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewF64(elems); err == nil {
		t.Fatal("second half-RAM array unexpectedly fit")
	}
	m.Reset()
	second, err := m.NewF64(elems)
	if err != nil {
		t.Fatalf("allocation after Reset failed: %v", err)
	}
	if second.Addr(0) != first.Addr(0) {
		t.Errorf("post-Reset base %#x, fresh base %#x", second.Addr(0), first.Addr(0))
	}
}
