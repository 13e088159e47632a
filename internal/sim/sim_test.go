package sim

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"riscvmem/internal/machine"
)

func TestAllocRespectsRAM(t *testing.T) {
	m := MustNew(machine.MangoPiD1()) // 1 GiB
	if _, err := m.NewF64(16384 * 16384); err == nil {
		t.Fatal("2 GiB allocation accepted on 1 GiB device")
	}
	a, err := m.NewF64(1024)
	if err != nil {
		t.Fatalf("small allocation failed: %v", err)
	}
	if a.Len() != 1024 {
		t.Fatalf("Len = %d", a.Len())
	}
	if m.Allocated() != 1024*8 {
		t.Fatalf("Allocated = %d", m.Allocated())
	}
}

func TestArraysAreDisjointAndAligned(t *testing.T) {
	m := MustNew(machine.VisionFive())
	a := m.MustNewF64(100)
	b := m.MustNewF32(100)
	if a.Addr(0)%4096 != 0 || b.Addr(0)%4096 != 0 {
		t.Fatal("arrays not page aligned")
	}
	if b.Addr(0) < a.Addr(a.Len()-1)+8 {
		t.Fatal("arrays overlap")
	}
}

func TestFunctionalLoadStore(t *testing.T) {
	m := MustNew(machine.MangoPiD1())
	a := m.MustNewF64(16)
	m.RunSeq(func(c *Core) {
		for i := 0; i < 16; i++ {
			a.Store(c, i, float64(i)*1.5)
		}
		for i := 0; i < 16; i++ {
			if got := a.Load(c, i); got != float64(i)*1.5 {
				t.Errorf("a[%d] = %v", i, got)
			}
		}
		if c.Loads != 16 || c.Stores != 16 {
			t.Errorf("loads/stores = %d/%d", c.Loads, c.Stores)
		}
	})
}

func TestF32Functional(t *testing.T) {
	m := MustNew(machine.MangoPiD1())
	a := m.MustNewF32(8)
	m.RunSeq(func(c *Core) {
		a.Store(c, 3, 2.25)
		if got := a.Load(c, 3); got != 2.25 {
			t.Errorf("a[3] = %v", got)
		}
	})
}

func TestTimeAdvancesAndClockIsMonotonic(t *testing.T) {
	m := MustNew(machine.MangoPiD1())
	a := m.MustNewF64(1 << 12)
	r1 := m.RunSeq(func(c *Core) {
		for i := 0; i < a.Len(); i++ {
			a.Store(c, i, 1)
		}
	})
	if r1.Cycles <= 0 {
		t.Fatal("region took no time")
	}
	before := m.Now()
	r2 := m.RunSeq(func(c *Core) { a.Load(c, 0) })
	if m.Now() < before || r2.Cycles < 0 {
		t.Fatal("clock went backwards")
	}
}

func TestCacheReuseIsCheaper(t *testing.T) {
	m := MustNew(machine.MangoPiD1())
	a := m.MustNewF64(512) // 4 KiB fits L1
	cold := m.RunSeq(func(c *Core) {
		for i := 0; i < a.Len(); i++ {
			a.Load(c, i)
		}
	})
	warm := m.RunSeq(func(c *Core) {
		for i := 0; i < a.Len(); i++ {
			a.Load(c, i)
		}
	})
	if warm.Cycles >= cold.Cycles {
		t.Fatalf("warm pass (%v) not faster than cold (%v)", warm.Cycles, cold.Cycles)
	}
}

func TestStridedSlowerThanSequential(t *testing.T) {
	// The asymmetry behind the whole transposition study: column order
	// (large stride) must cost more than row order on every device.
	for _, spec := range machine.All() {
		const n = 1 << 15 // 256 KiB, beyond every L1
		seqM := MustNew(spec)
		sa := seqM.MustNewF64(n)
		seq := seqM.RunSeq(func(c *Core) {
			for i := 0; i < n; i++ {
				sa.Load(c, i)
			}
		})
		strM := MustNew(spec)
		sb := strM.MustNewF64(n)
		const stride = 1024 // 8 KiB stride: new line and page constantly
		str := strM.RunSeq(func(c *Core) {
			for s := 0; s < stride; s++ {
				for i := s; i < n; i += stride {
					sb.Load(c, i)
				}
			}
		})
		if str.Cycles <= seq.Cycles {
			t.Errorf("%s: strided (%v) not slower than sequential (%v)",
				spec.Name, str.Cycles, seq.Cycles)
		}
	}
}

func TestRunPanicsOnTooManyCores(t *testing.T) {
	m := MustNew(machine.MangoPiD1())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 2 cores on a 1-core device")
		}
	}()
	m.Run(2, func(c *Core) {})
}

func streamRun(spec machine.Spec, cores, n int) (Result, Summary) {
	m := MustNew(spec)
	a := m.MustNewF64(n)
	b := m.MustNewF64(n)
	r := m.ParallelFor(cores, n, Static, 0, func(c *Core, i int) {
		a.Store(c, i, b.Load(c, i))
	})
	return r, m.Stats()
}

func streamCycles(spec machine.Spec, cores, n int) float64 {
	r, _ := streamRun(spec, cores, n)
	return r.Cycles
}

// atHostProcs runs f under 1, 2 and 4 host Ps: a multi-core region must not
// depend on how many threads the Go scheduler has to spread goroutines over.
func atHostProcs(f func(procs int)) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		f(procs)
		runtime.GOMAXPROCS(prev)
	}
}

func TestParallelDeterminism(t *testing.T) {
	spec := machine.XeonServer()
	const n = 1 << 14
	first, firstStats := streamRun(spec, 4, n)
	atHostProcs(func(procs int) {
		for trial := 0; trial < 3; trial++ {
			got, stats := streamRun(spec, 4, n)
			if got.Cycles != first.Cycles || !slices.Equal(got.PerCore, first.PerCore) || stats != firstStats {
				t.Fatalf("GOMAXPROCS=%d trial %d: (%+v, %+v), first run (%+v, %+v) — nondeterministic",
					procs, trial, got, stats, first, firstStats)
			}
		}
	})
}

// TestDynamicGrabOrder: dynamic chunks go to cores in simulated-time order
// of their grabs, and two cores grabbing at the same time are served
// smaller ID first.
func TestDynamicGrabOrder(t *testing.T) {
	owners := func(cost func(id int) float64) []int {
		m := MustNew(machine.VisionFive())
		got := make([]int, 3)
		m.ParallelRange(2, len(got), Dynamic, 1, func(c *Core, lo, hi int) {
			got[lo] = c.ID()
			c.Cycles(cost(c.ID()))
		})
		return got
	}
	// Equal chunk costs: the cores tie at the region start and again after
	// their first chunks, so core 0 wins both the first and the third grab.
	if got := owners(func(int) float64 { return 100 }); !slices.Equal(got, []int{0, 1, 0}) {
		t.Errorf("tied grabs: chunk owners %v, want [0 1 0]", got)
	}
	// Core 0 slower: core 1 is back first and takes the last chunk.
	if got := owners(func(id int) float64 { return 200 - 100*float64(id) }); !slices.Equal(got, []int{0, 1, 1}) {
		t.Errorf("core 1 earlier: chunk owners %v, want [0 1 1]", got)
	}
}

func TestParallelSpeedsUpStreaming(t *testing.T) {
	spec := machine.XeonServer()
	const n = 1 << 16
	t1 := streamCycles(spec, 1, n)
	t4 := streamCycles(spec, 4, n)
	if t4 >= t1 {
		t.Fatalf("4 cores (%v) not faster than 1 (%v)", t4, t1)
	}
	if t1/t4 > 4.2 {
		t.Fatalf("superlinear speedup %v", t1/t4)
	}
}

func TestParallelBoundedByChannels(t *testing.T) {
	// VisionFive: 2 cores on 2 starved channels; speedup must be < cores+ε
	// and wall time still positive.
	spec := machine.VisionFive()
	const n = 1 << 14
	t1 := streamCycles(spec, 1, n)
	t2 := streamCycles(spec, 2, n)
	if t2 <= 0 || t1 <= 0 {
		t.Fatal("degenerate times")
	}
	if sp := t1 / t2; sp > 2.05 {
		t.Fatalf("speedup %v exceeds core count", sp)
	}
}

func TestStaticCoversAllIndicesOnce(t *testing.T) {
	m := MustNew(machine.XeonServer())
	const n = 1000
	var mu [n]int32
	m.ParallelFor(4, n, Static, 0, func(c *Core, i int) { mu[i]++ })
	for i, v := range mu {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestDynamicCoversAllIndicesOnce(t *testing.T) {
	f := func(chunkRaw uint8, nRaw uint16) bool {
		chunk := int(chunkRaw)%17 + 1
		n := int(nRaw)%500 + 1
		m := MustNew(machine.RaspberryPi4())
		counts := make([]int32, n)
		m.ParallelFor(4, n, Dynamic, chunk, func(c *Core, i int) { counts[i]++ })
		for _, v := range counts {
			if v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDynamicBeatsStaticOnImbalance(t *testing.T) {
	// Triangular workload (like transposition rows): static assigns core 0
	// the longest rows; dynamic rebalances.
	imbalanced := func(sched Schedule) float64 {
		m := MustNew(machine.XeonServer())
		const n = 256
		a := m.MustNewF64(n * n)
		r := m.ParallelFor(4, n, sched, 1, func(c *Core, i int) {
			for j := 0; j < (n-i)*n/n; j++ { // row i costs n-i touches
				a.Load(c, (i*n+j)%a.Len())
			}
		})
		return r.Cycles
	}
	st, dy := imbalanced(Static), imbalanced(Dynamic)
	if dy >= st {
		t.Fatalf("dynamic (%v) not faster than static (%v) on triangular load", dy, st)
	}
}

func TestVectorizationHelpsOnlyAutoVecDevices(t *testing.T) {
	run := func(spec machine.Spec, vec bool) float64 {
		m := MustNew(spec)
		a := m.MustNewF64(1 << 12)
		r := m.RunSeq(func(c *Core) {
			c.Vec = vec
			for i := 0; i < a.Len(); i++ {
				a.Store(c, i, 2*a.Load(c, i))
				c.Flops(1)
			}
		})
		return r.Cycles
	}
	xeon := machine.XeonServer()
	if vecT, scalT := run(xeon, true), run(xeon, false); vecT >= scalT {
		t.Errorf("Xeon: vectorized (%v) not faster than scalar (%v)", vecT, scalT)
	}
	d1 := machine.MangoPiD1()
	if vecT, scalT := run(d1, true), run(d1, false); math.Abs(vecT-scalT) > 1e-9 {
		t.Errorf("MangoPi: Vec changed time (%v vs %v) despite scalar-only toolchain", vecT, scalT)
	}
}

func TestSecondsConversion(t *testing.T) {
	spec := machine.MangoPiD1() // 1 GHz: 1e9 cycles = 1 s
	r := Result{Cycles: 2e9}
	if got := r.Seconds(spec); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("Seconds = %v, want 2", got)
	}
}

func TestIntOpsAndCycles(t *testing.T) {
	m := MustNew(machine.VisionFive()) // issue width 2
	r := m.RunSeq(func(c *Core) {
		c.IntOps(10) // 5 cycles
		c.Cycles(3)
	})
	if r.Cycles != 8 {
		t.Fatalf("cycles = %v, want 8", r.Cycles)
	}
}
