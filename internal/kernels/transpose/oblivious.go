package transpose

import "riscvmem/internal/sim"

// CacheOblivious is an extension beyond the paper's five variants: the
// recursive divide-and-conquer transposition of Chatterjee & Sen (HPCA
// 2000), the paper's own reference [24]. It needs no tuned block size —
// recursion reaches every cache level's working set automatically — and the
// ablation benchmark compares it against the tuned Blocking variant on
// every device.
const CacheOblivious Variant = 5

// obliviousBase is the recursion cutoff; a 16×16 tile pair (4 KiB) fits the
// L1 of every device in the study.
const obliviousBase = 16

// runOblivious transposes in place by recursive quadrant decomposition,
// parallelizing the top-level off-diagonal strips across cores.
func runOblivious(m *sim.Machine, mat *sim.F64, n, cores int) sim.Result {
	if cores <= 1 {
		return m.RunSeq(func(c *sim.Core) {
			transposeDiag(c, mat, n, 0, n)
		})
	}
	// Parallel decomposition: a grid of balanced bands (boundary i·n/grid
	// covers every row exactly regardless of divisibility); each cell
	// recurses obliviously. Dynamic scheduling rebalances the triangular
	// strip lengths.
	grid := 1
	for grid < 4*cores && grid < n/obliviousBase {
		grid *= 2
	}
	bound := func(i int) int { return i * n / grid }
	return m.ParallelFor(cores, grid, sim.Dynamic, 1, func(c *sim.Core, bi int) {
		r0, r1 := bound(bi), bound(bi+1)
		transposeDiag(c, mat, n, r0, r1)
		for cj := bi + 1; cj < grid; cj++ {
			swapRect(c, mat, n, r0, r1, bound(cj), bound(cj+1))
		}
	})
}

// transposeDiag transposes the square diagonal region [lo,hi)×[lo,hi).
func transposeDiag(c *sim.Core, mat *sim.F64, n, lo, hi int) {
	size := hi - lo
	if size <= obliviousBase {
		for i := lo; i < hi; i++ {
			swapRange(c, mat, i*n+i+1, (i+1)*n+i, 1, n, hi-i-1)
		}
		return
	}
	mid := lo + size/2
	transposeDiag(c, mat, n, lo, mid)
	transposeDiag(c, mat, n, mid, hi)
	swapRect(c, mat, n, lo, mid, mid, hi)
}

// swapRect exchanges rectangle [r0,r1)×[c0,c1) with its transposed mirror
// [c0,c1)×[r0,r1), splitting the longer dimension until the pair fits cache.
func swapRect(c *sim.Core, mat *sim.F64, n, r0, r1, c0, c1 int) {
	rows, cols := r1-r0, c1-c0
	if rows <= obliviousBase && cols <= obliviousBase {
		for i := r0; i < r1; i++ {
			swapRange(c, mat, i*n+c0, c0*n+i, 1, n, c1-c0)
		}
		return
	}
	if rows >= cols {
		mid := r0 + rows/2
		swapRect(c, mat, n, r0, mid, c0, c1)
		swapRect(c, mat, n, mid, r1, c0, c1)
		return
	}
	mid := c0 + cols/2
	swapRect(c, mat, n, r0, r1, c0, mid)
	swapRect(c, mat, n, r0, r1, mid, c1)
}
