// Package transpose implements the paper's in-place dense matrix
// transposition study (§4.2): five implementations that incrementally apply
// the classic memory optimizations, from the naive double loop to cache
// blocking with per-thread staging buffers and dynamic scheduling.
//
// All variants operate on the same simulated N×N float64 matrix and are
// verified against the mathematical transpose, so each optimization is
// measured on a functionally identical computation.
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//
//simlint:deterministic
package transpose

import (
	"fmt"
	"strings"

	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
)

// Variant names one of the paper's five implementations.
type Variant int

// The five implementations of Fig. 2, in presentation order.
const (
	Naive Variant = iota
	Parallel
	Blocking
	ManualBlocking
	Dynamic
)

// Variants lists the paper's five implementations in figure order
// (CacheOblivious is an extension and not part of Fig. 2).
func Variants() []Variant {
	return []Variant{Naive, Parallel, Blocking, ManualBlocking, Dynamic}
}

// VariantByName resolves a variant from its figure label,
// case-insensitively (including Cache_oblivious); the error for an unknown
// name lists the valid ones.
func VariantByName(name string) (Variant, error) {
	all := append(Variants(), CacheOblivious)
	for _, v := range all {
		if strings.EqualFold(name, v.String()) {
			return v, nil
		}
	}
	valid := make([]string, 0, len(all))
	for _, v := range all {
		valid = append(valid, v.String())
	}
	return 0, fmt.Errorf("transpose: unknown variant %q (valid: %s)", name, strings.Join(valid, ", "))
}

// String returns the paper's label for the variant.
func (v Variant) String() string {
	switch v {
	case Naive:
		return "Naive"
	case Parallel:
		return "Parallel"
	case Blocking:
		return "Blocking"
	case ManualBlocking:
		return "Manual_blocking"
	case Dynamic:
		return "Dynamic"
	case CacheOblivious:
		return "Cache_oblivious"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Config describes one run.
type Config struct {
	N       int     // matrix dimension
	Variant Variant //
	// Block is the tile edge for the blocked variants; 0 picks a size whose
	// two staging tiles fit in half the device's L1.
	Block int
	// Verify checks the result against the mathematical transpose.
	Verify bool
}

// Result is one measured run.
type Result struct {
	Config
	Device  string
	Cycles  float64
	Seconds float64
	// Mem summarizes the machine's memory-system activity during the run
	// (miss rates, TLB walks, DRAM traffic) — the counters behind the
	// paper's explanations of *why* each optimization helps.
	Mem sim.Summary
}

// BytesMoved returns the minimum DRAM↔CPU traffic of an in-place N×N
// float64 transposition: every element is read once and written once
// (16·N² bytes) — the numerator of the §3.3 utilization metric.
func BytesMoved(n int) int64 { return 16 * int64(n) * int64(n) }

// defaultBlock picks the largest power-of-two tile with two tiles fitting
// in half of L1 (the staging buffer plus the mirror block).
func defaultBlock(spec machine.Spec) int {
	b := 1
	for ; ; b *= 2 {
		next := b * 2
		if int64(next*next*8*2) > spec.Mem.L1.Size/2 {
			return b
		}
	}
}

// RunOn executes one transposition variant on the given machine, which must
// be in its power-on state (freshly constructed or Reset by the runner's
// pool).
func RunOn(m *sim.Machine, cfg Config) (Result, error) {
	spec := m.Spec()
	if cfg.N <= 0 {
		return Result{}, fmt.Errorf("transpose: non-positive size %d", cfg.N)
	}
	if cfg.Block <= 0 {
		cfg.Block = defaultBlock(spec)
	}
	if cfg.Block > cfg.N {
		cfg.Block = cfg.N
	}
	if cfg.N%cfg.Block != 0 {
		return Result{}, fmt.Errorf("transpose: size %d not a multiple of block %d", cfg.N, cfg.Block)
	}
	n := cfg.N
	mat, err := m.NewF64(n * n)
	if err != nil {
		return Result{}, err
	}
	// Host-side init (untimed): a value that encodes its coordinates so
	// verification is exact.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			mat.Data[i*n+j] = float64(i)*1e-3 + float64(j)
		}
	}

	cores := spec.Cores
	var res sim.Result
	switch cfg.Variant {
	case Naive:
		res = m.RunSeq(func(c *sim.Core) {
			for i := 0; i < n; i++ {
				swapRange(c, mat, i*n+i+1, (i+1)*n+i, 1, n, n-i-1)
			}
		})
	case Parallel:
		res = m.ParallelFor(cores, n, sim.Static, 0, func(c *sim.Core, i int) {
			swapRange(c, mat, i*n+i+1, (i+1)*n+i, 1, n, n-i-1)
		})
	case Blocking:
		res = m.ParallelFor(cores, n/cfg.Block, sim.Static, 0, func(c *sim.Core, bi int) {
			transposeBlockRow(c, mat, n, cfg.Block, bi)
		})
	case ManualBlocking:
		res = runManual(m, mat, n, cfg.Block, cores, sim.Static)
	case Dynamic:
		res = runManual(m, mat, n, cfg.Block, cores, sim.Dynamic)
	case CacheOblivious:
		res = runOblivious(m, mat, n, cores)
	default:
		return Result{}, fmt.Errorf("transpose: unknown variant %d", int(cfg.Variant))
	}

	out := Result{Config: cfg, Device: spec.Name, Cycles: res.Cycles,
		Seconds: res.Seconds(spec), Mem: m.Stats()}
	if cfg.Verify {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := float64(j)*1e-3 + float64(i)
				if got := mat.Data[i*n+j]; got != want {
					return out, fmt.Errorf("transpose: %v wrong at (%d,%d): got %v want %v",
						cfg.Variant, i, j, got, want)
				}
			}
		}
	}
	return out, nil
}

// swapRange exchanges count element pairs (p0+k·pStride, q0+k·qStride)
// exactly like the scalar swap loop (load p, load q, store p, store q, three
// integer ops per pair): the four interleaved accesses are charged through
// TouchSpans (line-granular lookups) and the data moves in a plain Go loop.
func swapRange(c *sim.Core, mat *sim.F64, p0, q0, pStride, qStride, count int) {
	if count <= 0 {
		return
	}
	ps, qs := int64(pStride)*8, int64(qStride)*8
	spans := [4]sim.Span{
		{Addr: mat.Addr(p0), Stride: ps, Bytes: 8},
		{Addr: mat.Addr(q0), Stride: qs, Bytes: 8},
		{Addr: mat.Addr(p0), Stride: ps, Bytes: 8, Write: true},
		{Addr: mat.Addr(q0), Stride: qs, Bytes: 8, Write: true},
	}
	post := [1]float64{c.IntCycles(3)}
	c.TouchSpans(count, spans[:], post[:])
	for k := 0; k < count; k++ {
		p, q := p0+k*pStride, q0+k*qStride
		mat.Data[p], mat.Data[q] = mat.Data[q], mat.Data[p]
	}
}

// transposeBlockRow handles block row bi of the Blocking variant (Listing
// 2): in-place swaps walked tile by tile, diagonal tiles as triangles.
func transposeBlockRow(c *sim.Core, mat *sim.F64, n, blk, bi int) {
	iBlk := bi * blk
	for jBlk := iBlk; jBlk < n; jBlk += blk {
		if iBlk == jBlk {
			for i := iBlk; i < iBlk+blk; i++ {
				swapRange(c, mat, i*n+i+1, (i+1)*n+i, 1, n, jBlk+blk-i-1)
			}
			continue
		}
		for i := iBlk; i < iBlk+blk; i++ {
			swapRange(c, mat, i*n+jBlk, jBlk*n+i, 1, n, blk)
		}
	}
}

// runManual implements Listing 3 (ManualBlocking) and the Dynamic variant:
// each thread stages tiles through a private buffer so main-memory access
// stays sequential, transposes them in cache, and writes them back.
func runManual(m *sim.Machine, mat *sim.F64, n, blk, cores int, sched sim.Schedule) sim.Result {
	nBlocks := n / blk
	// One staging buffer pair per potential thread, allocated up front
	// (simulated, but thread-local and cache-resident by design).
	bufA := make([]*sim.F64, cores)
	bufB := make([]*sim.F64, cores)
	for t := 0; t < cores; t++ {
		bufA[t] = m.MustNewF64(blk * blk)
		bufB[t] = m.MustNewF64(blk * blk)
	}
	return m.ParallelFor(cores, nBlocks, sched, 1, func(c *sim.Core, bi int) {
		a, b := bufA[c.ID()], bufB[c.ID()]
		iBlk := bi * blk
		// Diagonal tile: load, transpose in cache, store back.
		loadBlock(c, mat, a, n, blk, iBlk, iBlk)
		transposeInCache(c, a, blk)
		storeBlock(c, mat, a, n, blk, iBlk, iBlk)
		// Off-diagonal tiles: load the pair, transpose both in cache, store
		// each to the other's position.
		for jBlk := iBlk + blk; jBlk < n; jBlk += blk {
			loadBlock(c, mat, a, n, blk, iBlk, jBlk)
			loadBlock(c, mat, b, n, blk, jBlk, iBlk)
			transposeInCache(c, a, blk)
			transposeInCache(c, b, blk)
			storeBlock(c, mat, b, n, blk, iBlk, jBlk)
			storeBlock(c, mat, a, n, blk, jBlk, iBlk)
		}
	})
}

// copyRow moves count elements from src[s0:] to dst[d0:] with the load and
// store interleaved per element, exactly like the scalar staging loop.
func copyRow(c *sim.Core, dst, src *sim.F64, d0, s0, count int) {
	spans := [2]sim.Span{
		{Addr: src.Addr(s0), Stride: 8, Bytes: 8},
		{Addr: dst.Addr(d0), Stride: 8, Bytes: 8, Write: true},
	}
	c.TouchSpans(count, spans[:], nil)
	copy(dst.Data[d0:d0+count], src.Data[s0:s0+count])
}

// loadBlock copies tile (iBlk,jBlk) into buf row-sequentially.
func loadBlock(c *sim.Core, mat, buf *sim.F64, n, blk, iBlk, jBlk int) {
	for i := 0; i < blk; i++ {
		copyRow(c, buf, mat, i*blk, (iBlk+i)*n+jBlk, blk)
		c.IntOps(float64(blk))
	}
}

// storeBlock writes buf back over tile (iBlk,jBlk) row-sequentially.
func storeBlock(c *sim.Core, mat, buf *sim.F64, n, blk, iBlk, jBlk int) {
	for i := 0; i < blk; i++ {
		copyRow(c, mat, buf, (iBlk+i)*n+jBlk, i*blk, blk)
		c.IntOps(float64(blk))
	}
}

// transposeInCache transposes the L1-resident tile in place.
func transposeInCache(c *sim.Core, buf *sim.F64, blk int) {
	for i := 0; i < blk; i++ {
		swapRange(c, buf, i*blk+i+1, (i+1)*blk+i, 1, blk, blk-i-1)
	}
}
