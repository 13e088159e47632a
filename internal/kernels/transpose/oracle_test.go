package transpose

import (
	"testing"

	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
)

// swap exchanges two elements through the simulated memory system: the
// scalar loop body every swapRange call stands for.
func swap(c *sim.Core, mat *sim.F64, p, q int) {
	vp := mat.Load(c, p)
	vq := mat.Load(c, q)
	mat.Store(c, p, vq)
	mat.Store(c, q, vp)
	c.IntOps(3) // index arithmetic + loop branch
}

// copyElems is the scalar staging loop every copyRow call stands for.
func copyElems(c *sim.Core, dst, src *sim.F64, d0, s0, count int) {
	for j := 0; j < count; j++ {
		dst.Store(c, d0+j, src.Load(c, s0+j))
	}
}

// reference is the transposition written as the paper's scalar loops, one
// Load or Store per element, on a fresh machine holding RunOn's arrays in
// RunOn's allocation order.
func reference(spec machine.Spec, cfg Config) (cycles float64, mem sim.Summary) {
	m := sim.MustNew(spec)
	n, cores := cfg.N, spec.Cores
	blk := cfg.Block
	if blk <= 0 {
		blk = defaultBlock(spec)
	}
	blk = min(blk, n)
	mat := m.MustNewF64(n * n)
	// row swaps the pairs (i,j)/(j,i) for j in [j0,j1) of a matrix of width w.
	row := func(c *sim.Core, a *sim.F64, w, i, j0, j1 int) {
		for j := j0; j < j1; j++ {
			swap(c, a, i*w+j, j*w+i)
		}
	}
	var res sim.Result
	switch cfg.Variant {
	case Naive:
		res = m.RunSeq(func(c *sim.Core) {
			for i := 0; i < n; i++ {
				row(c, mat, n, i, i+1, n)
			}
		})
	case Parallel:
		res = m.ParallelFor(cores, n, sim.Static, 0, func(c *sim.Core, i int) {
			row(c, mat, n, i, i+1, n)
		})
	case Blocking:
		res = m.ParallelFor(cores, n/blk, sim.Static, 0, func(c *sim.Core, bi int) {
			iBlk := bi * blk
			for jBlk := iBlk; jBlk < n; jBlk += blk {
				for i := iBlk; i < iBlk+blk; i++ {
					row(c, mat, n, i, max(jBlk, i+1), jBlk+blk)
				}
			}
		})
	case ManualBlocking, Dynamic:
		bufA, bufB := make([]*sim.F64, cores), make([]*sim.F64, cores)
		for t := range cores {
			bufA[t], bufB[t] = m.MustNewF64(blk*blk), m.MustNewF64(blk*blk)
		}
		load := func(c *sim.Core, buf *sim.F64, iBlk, jBlk int) {
			for i := 0; i < blk; i++ {
				copyElems(c, buf, mat, i*blk, (iBlk+i)*n+jBlk, blk)
				c.IntOps(float64(blk))
			}
		}
		store := func(c *sim.Core, buf *sim.F64, iBlk, jBlk int) {
			for i := 0; i < blk; i++ {
				copyElems(c, mat, buf, (iBlk+i)*n+jBlk, i*blk, blk)
				c.IntOps(float64(blk))
			}
		}
		inCache := func(c *sim.Core, buf *sim.F64) {
			for i := 0; i < blk; i++ {
				row(c, buf, blk, i, i+1, blk)
			}
		}
		sched := sim.Static
		if cfg.Variant == Dynamic {
			sched = sim.Dynamic
		}
		res = m.ParallelFor(cores, n/blk, sched, 1, func(c *sim.Core, bi int) {
			a, b := bufA[c.ID()], bufB[c.ID()]
			iBlk := bi * blk
			load(c, a, iBlk, iBlk)
			inCache(c, a)
			store(c, a, iBlk, iBlk)
			for jBlk := iBlk + blk; jBlk < n; jBlk += blk {
				load(c, a, iBlk, jBlk)
				load(c, b, jBlk, iBlk)
				inCache(c, a)
				inCache(c, b)
				store(c, b, iBlk, jBlk)
				store(c, a, jBlk, iBlk)
			}
		})
	case CacheOblivious:
		var diag func(c *sim.Core, lo, hi int)
		var rect func(c *sim.Core, r0, r1, c0, c1 int)
		diag = func(c *sim.Core, lo, hi int) {
			if hi-lo <= obliviousBase {
				for i := lo; i < hi; i++ {
					row(c, mat, n, i, i+1, hi)
				}
				return
			}
			mid := lo + (hi-lo)/2
			diag(c, lo, mid)
			diag(c, mid, hi)
			rect(c, lo, mid, mid, hi)
		}
		rect = func(c *sim.Core, r0, r1, c0, c1 int) {
			rows, cols := r1-r0, c1-c0
			switch {
			case rows <= obliviousBase && cols <= obliviousBase:
				for i := r0; i < r1; i++ {
					row(c, mat, n, i, c0, c1)
				}
			case rows >= cols:
				rect(c, r0, r0+rows/2, c0, c1)
				rect(c, r0+rows/2, r1, c0, c1)
			default:
				rect(c, r0, r1, c0, c0+cols/2)
				rect(c, r0, r1, c0+cols/2, c1)
			}
		}
		if cores <= 1 {
			res = m.RunSeq(func(c *sim.Core) { diag(c, 0, n) })
			break
		}
		grid := 1
		for grid < 4*cores && grid < n/obliviousBase {
			grid *= 2
		}
		bound := func(i int) int { return i * n / grid }
		res = m.ParallelFor(cores, grid, sim.Dynamic, 1, func(c *sim.Core, bi int) {
			diag(c, bound(bi), bound(bi+1))
			for cj := bi + 1; cj < grid; cj++ {
				rect(c, bound(bi), bound(bi+1), bound(cj), bound(cj+1))
			}
		})
	}
	return res.Cycles, m.Stats()
}

// TestRangeOracle asserts the TouchSpans-based transposition kernels are
// bit-identical, in simulated cycles and every memory-system statistic, to
// the scalar element-by-element loops, for every variant, Cache_oblivious
// included, on every device preset.
func TestRangeOracle(t *testing.T) {
	for _, spec := range machine.All() {
		for _, v := range append(Variants(), CacheOblivious) {
			cfg := Config{N: 128, Variant: v, Verify: true}
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
