package transpose

import (
	"strings"
	"testing"
	"testing/quick"

	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
)

func TestVariantMetadata(t *testing.T) {
	if len(Variants()) != 5 {
		t.Fatal("the paper presents five implementations")
	}
	names := []string{"Naive", "Parallel", "Blocking", "Manual_blocking", "Dynamic"}
	for i, v := range Variants() {
		if v.String() != names[i] {
			t.Errorf("variant %d = %q, want %q", i, v.String(), names[i])
		}
	}
}

// TestVariantByName resolves every label, Cache_oblivious included,
// case-insensitively and without allocating: spec parsing calls it per job.
func TestVariantByName(t *testing.T) {
	for _, v := range append(Variants(), CacheOblivious) {
		got, err := VariantByName(strings.ToUpper(v.String()))
		if err != nil || got != v {
			t.Errorf("VariantByName(%q) = %v, %v; want %v", strings.ToUpper(v.String()), got, err, v)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = VariantByName("cache_oblivious") }); allocs != 0 {
		t.Errorf("VariantByName allocates %v times, want 0", allocs)
	}
	_, err := VariantByName("Strided")
	if err == nil || !strings.Contains(err.Error(), "Naive, Parallel, Blocking, Manual_blocking, Dynamic, Cache_oblivious") {
		t.Errorf("unknown variant error %v, want the six valid names", err)
	}
}

func TestBytesMoved(t *testing.T) {
	if got := BytesMoved(8192); got != 16*8192*8192 {
		t.Fatalf("BytesMoved = %d", got)
	}
}

func TestRejectsBadConfig(t *testing.T) {
	if _, err := RunOn(sim.MustNew(machine.MangoPiD1()), Config{N: 0, Variant: Naive}); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := RunOn(sim.MustNew(machine.MangoPiD1()), Config{N: 100, Variant: Blocking, Block: 32}); err == nil {
		t.Error("non-divisible block accepted")
	}
	if _, err := RunOn(sim.MustNew(machine.MangoPiD1()), Config{N: 64, Variant: Variant(99)}); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestAllVariantsCorrectOnAllDevices(t *testing.T) {
	for _, spec := range machine.All() {
		for _, v := range Variants() {
			res, err := RunOn(sim.MustNew(spec), Config{N: 64, Variant: v, Verify: true})
			if err != nil {
				t.Errorf("%s/%v: %v", spec.Name, v, err)
				continue
			}
			if res.Cycles <= 0 {
				t.Errorf("%s/%v: no time elapsed", spec.Name, v)
			}
		}
	}
}

func TestOversizeMatrixRejectedByRAM(t *testing.T) {
	// The Fig. 2 capacity story: 16384² does not fit the Mango Pi.
	if _, err := RunOn(sim.MustNew(machine.MangoPiD1()), Config{N: 16384, Variant: Naive}); err == nil {
		t.Fatal("16384² accepted on the 1 GiB Mango Pi")
	}
}

func TestBlockingBeatsNaive(t *testing.T) {
	// The central §4.2 claim: cache blocking helps on *every* device,
	// including both RISC-V boards. The matrix must be large enough that a
	// full column's cache lines (n × 64 B) overflow L1 — below that the
	// naive version caches fine and there is nothing to win.
	const n = 1024
	for _, spec := range machine.All() {
		naive, err := RunOn(sim.MustNew(spec), Config{N: n, Variant: Naive})
		if err != nil {
			t.Fatal(err)
		}
		blocked, err := RunOn(sim.MustNew(spec), Config{N: n, Variant: Blocking})
		if err != nil {
			t.Fatal(err)
		}
		if blocked.Seconds >= naive.Seconds {
			t.Errorf("%s: Blocking (%v) not faster than Naive (%v)",
				spec.Name, blocked.Seconds, naive.Seconds)
		}
	}
}

func TestParallelGainsNothingOnSingleCore(t *testing.T) {
	// Fig. 2: "the lack of acceleration of parallel implementations on
	// Mango Pi is due to the single-core CPU."
	const n = 128
	naive, err := RunOn(sim.MustNew(machine.MangoPiD1()), Config{N: n, Variant: Naive})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunOn(sim.MustNew(machine.MangoPiD1()), Config{N: n, Variant: Parallel})
	if err != nil {
		t.Fatal(err)
	}
	ratio := naive.Seconds / par.Seconds
	if ratio > 1.05 || ratio < 0.95 {
		t.Fatalf("single-core parallel speedup %v, want ≈1", ratio)
	}
}

func TestParallelHelpsOnXeon(t *testing.T) {
	const n = 256
	naive, err := RunOn(sim.MustNew(machine.XeonServer()), Config{N: n, Variant: Naive})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunOn(sim.MustNew(machine.XeonServer()), Config{N: n, Variant: Parallel})
	if err != nil {
		t.Fatal(err)
	}
	if sp := naive.Seconds / par.Seconds; sp < 2 {
		t.Fatalf("10-core Xeon parallel speedup only %v", sp)
	}
}

func TestDynamicAtLeastAsGoodAsManualOnXeon(t *testing.T) {
	// Dynamic scheduling fixes the triangular imbalance of static block
	// rows (§4.2 "Dynamic Scheduling").
	const n = 512
	man, err := RunOn(sim.MustNew(machine.XeonServer()), Config{N: n, Variant: ManualBlocking})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := RunOn(sim.MustNew(machine.XeonServer()), Config{N: n, Variant: Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Seconds > man.Seconds*1.02 {
		t.Fatalf("Dynamic (%v) worse than Manual_blocking (%v)", dyn.Seconds, man.Seconds)
	}
}

func TestDefaultBlockFitsL1(t *testing.T) {
	for _, spec := range machine.All() {
		b := defaultBlock(spec)
		if b < 8 {
			t.Errorf("%s: block %d suspiciously small", spec.Name, b)
		}
		if int64(2*b*b*8) > spec.Mem.L1.Size/2 {
			t.Errorf("%s: two %d² tiles exceed half of L1", spec.Name, b)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		r, err := RunOn(sim.MustNew(machine.VisionFive()), Config{N: 128, Variant: Dynamic})
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic transpose: %v vs %v", a, b)
	}
}

// Property: every variant is an involution-correct transpose for random
// block-aligned sizes.
func TestPropertyCorrectForRandomSizes(t *testing.T) {
	f := func(raw uint8) bool {
		n := (int(raw)%4 + 1) * 32 // 32..128, multiple of the test block
		for _, v := range Variants() {
			if _, err := RunOn(sim.MustNew(machine.VisionFive()), Config{N: n, Variant: v, Block: 16, Verify: true}); err != nil {
				t.Logf("n=%d variant=%v: %v", n, v, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Error(err)
	}
}
