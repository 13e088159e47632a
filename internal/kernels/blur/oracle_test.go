package blur

import (
	"testing"

	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
)

// newF32 allocates an n-element image on m; the oracle's images always fit.
func newF32(m *sim.Machine, n int) *sim.F32 {
	a, err := m.NewF32(n)
	if err != nil {
		panic(err)
	}
	return a
}

// reference is the blur written as the paper's scalar loops (Listings 4–5),
// one Load or Store per pixel channel and each tap's flop and intop
// charges, on a fresh machine holding RunOn's images in RunOn's allocation
// order. Timing does not depend on the values, so the images stay zero.
func reference(spec machine.Spec, cfg Config) (cycles float64, mem sim.Summary) {
	m := sim.MustNew(spec)
	w, h, ch, f := cfg.W, cfg.H, cfg.C, cfg.F
	mid, wc := f/2, w*ch
	src, dst := newF32(m, h*wc), newF32(m, h*wc)
	k1 := Kernel1D(f)
	k2 := Kernel2D(k1)
	var res sim.Result
	switch cfg.Variant {
	case Naive:
		res = m.RunSeq(func(c *sim.Core) {
			for i := 0; i <= h-f; i++ {
				for j := 0; j <= w-f; j++ {
					for cc := 0; cc < ch; cc++ {
						var sum float32
						for iF := 0; iF < f; iF++ {
							for jF := 0; jF < f; jF++ {
								sum += src.Load(c, (i+iF)*wc+(j+jF)*ch+cc) * k2[iF*f+jF]
								c.Cycles(c.Flop32Cycles(2))
								c.IntOps(2)
							}
						}
						dst.Store(c, (i+mid)*wc+(j+mid)*ch+cc, sum)
					}
				}
			}
		})
	case UnitStride:
		res = m.RunSeq(func(c *sim.Core) {
			sums := make([]float32, ch)
			for i := 0; i <= h-f; i++ {
				for j := 0; j <= w-f; j++ {
					clear(sums)
					for iF := 0; iF < f; iF++ {
						for jF := 0; jF < f; jF++ {
							for cc := 0; cc < ch; cc++ {
								sums[cc] += src.Load(c, (i+iF)*wc+(j+jF)*ch+cc) * k2[iF*f+jF]
								c.Cycles(c.Flop32Cycles(2))
								c.IntOps(1)
							}
						}
					}
					for cc := 0; cc < ch; cc++ {
						dst.Store(c, (i+mid)*wc+(j+mid)*ch+cc, sums[cc])
					}
				}
			}
		})
	case OneD:
		tmp := newF32(m, h*wc)
		res = m.RunSeq(func(c *sim.Core) {
			for i := 0; i <= h-f; i++ {
				for j := 0; j < wc; j++ {
					var sum float32
					for iF := 0; iF < f; iF++ {
						sum += src.Load(c, (i+iF)*wc+j) * k1[iF]
						c.Cycles(c.Flop32Cycles(2))
						c.IntOps(2)
					}
					tmp.Store(c, (i+mid)*wc+j, sum)
				}
			}
			for i := mid; i < h-f+1+mid; i++ {
				for j := 0; j <= w-f; j++ {
					for cc := 0; cc < ch; cc++ {
						var sum float32
						for jF := 0; jF < f; jF++ {
							sum += tmp.Load(c, i*wc+(j+jF)*ch+cc) * k1[jF]
							c.Cycles(c.Flop32Cycles(2))
							c.IntOps(2)
						}
						dst.Store(c, i*wc+(j+mid)*ch+cc, sum)
					}
				}
			}
		})
	case Memory, Parallel:
		tmp := newF32(m, h*wc)
		cores := 1
		if cfg.Variant == Parallel {
			cores = spec.Cores
		}
		// accumulate is one tap streamed over a row: out[j] (+)= in[j]·kv.
		accumulate := func(c *sim.Core, out, in *sim.F32, o, i0, n int, kv float32, first bool) {
			for j := 0; j < n; j++ {
				acc := out.Load(c, o+j)
				if first {
					acc = 0
				}
				out.Store(c, o+j, acc+in.Load(c, i0+j)*kv)
				c.Cycles(c.Flop32Cycles(2))
				c.IntOps(1)
			}
		}
		r1 := m.ParallelFor(cores, h-f+1, sim.Static, 0, func(c *sim.Core, i int) {
			c.Vec = true
			for iF := 0; iF < f; iF++ {
				accumulate(c, tmp, src, (i+mid)*wc, (i+iF)*wc, wc, k1[iF], iF == 0)
			}
		})
		r2 := m.ParallelFor(cores, h-f+1, sim.Static, 0, func(c *sim.Core, ri int) {
			c.Vec = true
			row := (ri + mid) * wc
			for jF := 0; jF < f; jF++ {
				accumulate(c, dst, tmp, row+mid*ch, row+jF*ch, (w-f+1)*ch, k1[jF], jF == 0)
			}
		})
		res = sim.Result{Cycles: r1.Cycles + r2.Cycles}
	}
	return res.Cycles, m.Stats()
}

// TestRangeOracle asserts the TouchSpans-based blur kernels are
// bit-identical, in simulated cycles and every memory-system statistic, to
// the scalar element-by-element loops, for all five variants on every
// device preset.
func TestRangeOracle(t *testing.T) {
	for _, spec := range machine.All() {
		for _, v := range Variants() {
			cfg := Config{W: 40, H: 32, C: 3, F: 9, Variant: v, Verify: true}
			got, err := RunOn(sim.MustNew(spec), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cycles, mem := reference(spec, cfg)
			if got.Cycles != cycles || got.Mem != mem {
				t.Errorf("%s/%v: range path diverges: cycles %v vs %v, mem %+v vs %+v",
					spec.Name, v, got.Cycles, cycles, got.Mem, mem)
			}
		}
	}
}
