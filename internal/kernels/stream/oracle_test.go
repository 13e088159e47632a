package stream

import (
	"testing"

	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
	"riscvmem/internal/units"
)

// reference is the STREAM measurement written as the scalar loop: one
// Load or Store per array element and the iteration's flop and intop
// charges, on a fresh machine holding RunOn's three arrays in RunOn's
// allocation order, with the same warm-up pass, repetitions and best-of.
// Timing does not depend on the values, so the arrays stay zero.
func reference(spec machine.Spec, cfg Config) Measurement {
	cfg = cfg.Normalized()
	m := sim.MustNew(spec)
	n := cfg.Elems
	a, b, cArr := m.MustNewF64(n), m.MustNewF64(n), m.MustNewF64(n)
	const d = 3.0
	body := func(c *sim.Core, lo, hi int) {
		c.Vec = true
		for i := lo; i < hi; i++ {
			switch cfg.Test {
			case Copy:
				a.Store(c, i, b.Load(c, i))
			case Scale:
				a.Store(c, i, d*b.Load(c, i))
				c.Flops(1)
			case Sum:
				a.Store(c, i, b.Load(c, i)+cArr.Load(c, i))
				c.Flops(1)
			case Triad:
				a.Store(c, i, b.Load(c, i)+d*cArr.Load(c, i))
				c.Flops(2)
			}
			c.IntOps(1)
		}
	}
	meas := Measurement{Config: cfg, Device: spec.Name, Bytes: cfg.Test.BytesPerIter() * int64(n)}
	m.ParallelRange(cfg.Cores, n, sim.Static, 0, body)
	for r := 0; r < cfg.Reps; r++ {
		res := m.ParallelRange(cfg.Cores, n, sim.Static, 0, body)
		bw := units.Bandwidth(meas.Bytes, res.Cycles, spec.FreqGHz)
		meas.PerRep = append(meas.PerRep, bw)
		if scaled := units.BytesPerSec(float64(bw) * float64(cfg.ScaleBy)); scaled > meas.Best {
			meas.Best, meas.BestCycles = scaled, res.Cycles
		}
	}
	meas.Mem = m.Stats()
	return meas
}

// TestRangeOracle asserts the TouchSpans-based STREAM kernel is
// bit-identical, in bandwidth per repetition, best cycles and every
// memory-system statistic, to the scalar element-by-element loop, for all
// four tests on all four device presets (multi-threaded where the device
// is).
func TestRangeOracle(t *testing.T) {
	for _, spec := range machine.All() {
		for _, tst := range Tests() {
			cfg := Config{Test: tst, Elems: 3000, Cores: spec.Cores, Reps: 2}
			got, err := RunOn(sim.MustNew(spec), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := reference(spec, cfg)
			if got.Best != ref.Best || got.BestCycles != ref.BestCycles || got.Mem != ref.Mem {
				t.Errorf("%s/%v: range path diverges: best %v vs %v, mem %+v vs %+v",
					spec.Name, tst, got.Best, ref.Best, got.Mem, ref.Mem)
			}
			if len(got.PerRep) != len(ref.PerRep) {
				t.Fatalf("%s/%v: %d reps, reference %d", spec.Name, tst, len(got.PerRep), len(ref.PerRep))
			}
			for i := range ref.PerRep {
				if got.PerRep[i] != ref.PerRep[i] {
					t.Errorf("%s/%v rep %d: %v != %v", spec.Name, tst, i, got.PerRep[i], ref.PerRep[i])
				}
			}
		}
	}
}
