package sim

import (
	"math/rand"
	"slices"
	"testing"

	"riscvmem/internal/machine"
)

// runPattern executes body on a fresh machine of each preset and returns
// the per-device (final core time, loads, stores, memory summary).
type patternResult struct {
	now    float64
	loads  uint64
	stores uint64
	mem    Summary
}

func runPattern(t *testing.T, spec machine.Spec, elems int, body func(c *Core, a *F64)) patternResult {
	t.Helper()
	m, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.NewF64(elems)
	if err != nil {
		t.Fatal(err)
	}
	var r patternResult
	m.RunSeq(func(c *Core) {
		body(c, a)
		r.now = c.NowCycles()
		r.loads, r.stores = c.Loads, c.Stores
	})
	r.mem = m.Stats()
	return r
}

// TestTouchRangeOracle asserts that TouchRange is bit-identical — simulated
// cycles, access counters and all memory-system statistics — to the
// per-element Touch loop it replaces, on every device preset, across
// alignments, element widths and read/write.
func TestTouchRangeOracle(t *testing.T) {
	const elems = 6000
	cases := []struct {
		name      string
		start     int64 // byte offset into the array
		elemBytes int
		n         int
		write     bool
	}{
		{"read8", 0, 8, 4500, false},
		{"write8", 0, 8, 4500, true},
		{"read4-unaligned", 12, 4, 7000, false},
		{"write2-odd", 3, 2, 5000, true},
		{"read8-short", 8, 8, 3, false},
	}
	for _, spec := range machine.All() {
		for _, tc := range cases {
			ref := runPattern(t, spec, elems, func(c *Core, a *F64) {
				addr := a.Addr(0) + uint64(tc.start)
				for i := 0; i < tc.n; i++ {
					c.Touch(addr+uint64(i*tc.elemBytes), tc.elemBytes, tc.write)
				}
			})
			got := runPattern(t, spec, elems, func(c *Core, a *F64) {
				c.TouchRange(a.Addr(0)+uint64(tc.start), tc.elemBytes, tc.n, tc.write)
			})
			if got != ref {
				t.Errorf("%s/%s: TouchRange diverges from element path:\n got %+v\nwant %+v",
					spec.Name, tc.name, got, ref)
			}
		}
	}
}

// TestTouchSpansOracle asserts that TouchSpans reproduces the interleaved
// per-element loop exactly, including the post charges, on every preset.
func TestTouchSpansOracle(t *testing.T) {
	const elems = 9000
	for _, spec := range machine.All() {
		spans := func(a *F64) []Span {
			return []Span{
				{Addr: a.Addr(0), Stride: 8, Bytes: 8},
				{Addr: a.Addr(3000), Stride: 16, Bytes: 4},
				{Addr: a.Addr(0), Stride: 8, Bytes: 8, Write: true},
			}
		}
		const n = 1500
		ref := runPattern(t, spec, elems, func(c *Core, a *F64) {
			sp := spans(a)
			f, g := c.Flop32Cycles(2), c.IntCycles(3)
			for i := 0; i < n; i++ {
				for _, s := range sp {
					c.Touch(s.Addr+uint64(int64(i)*s.Stride), s.Bytes, s.Write)
				}
				c.Cycles(f)
				c.Cycles(g)
			}
		})
		got := runPattern(t, spec, elems, func(c *Core, a *F64) {
			c.TouchSpans(n, spans(a), []float64{c.Flop32Cycles(2), c.IntCycles(3)})
		})
		if got != ref {
			t.Errorf("%s: TouchSpans diverges from element path:\n got %+v\nwant %+v",
				spec.Name, got, ref)
		}
	}
}

// TestLoadStoreRange checks F64.LoadRange returns the right elements and
// charges exactly the accesses of the per-element Load loop it stands for,
// after a per-element Store has written one of them.
func TestLoadStoreRange(t *testing.T) {
	program := func(ranged bool) (vals []float64, r patternResult) {
		r = runPattern(t, machine.MangoPiD1(), 64, func(c *Core, a *F64) {
			for i := range a.Data {
				a.Data[i] = float64(i)
			}
			a.Store(c, 8, 100)
			if ranged {
				vals = a.LoadRange(c, 8, 24)
				return
			}
			for i := 8; i < 24; i++ {
				vals = append(vals, a.Load(c, i))
			}
		})
		return vals, r
	}
	got, gotR := program(true)
	want, wantR := program(false)
	if !slices.Equal(got, want) || len(got) != 16 || got[0] != 100 || got[15] != 23 {
		t.Errorf("LoadRange data = %v, want %v", got, want)
	}
	if gotR != wantR {
		t.Errorf("LoadRange diverges from the Load loop:\n got %+v\nwant %+v", gotR, wantR)
	}
}

// rangeOp is one randomly drawn operation of a property-test program: a
// TouchRange, a TouchSpans batch, or a single Touch (which perturbs the L0
// filter, the prefetcher's training and the MSHR ring between bursts — the
// states the batched miss pipeline's streak mode has to re-establish).
type rangeOp struct {
	kind  int // 0 = TouchRange, 1 = TouchSpans, 2 = Touch
	off   int64
	bytes int
	n     int
	write bool
	spans []Span // offsets in Addr, rebased onto the array per run
	post  []float64
}

// randRangeProgram draws a fixed-seed program whose operations stay inside
// an elems-element F64 array.
func randRangeProgram(rng *rand.Rand, elems int) []rangeOp {
	widths := []int{1, 2, 3, 4, 8, 16}
	limit := int64(elems) * 8
	ops := make([]rangeOp, 0, 48)
	for len(ops) < 48 {
		op := rangeOp{kind: rng.Intn(3), write: rng.Intn(2) == 0}
		op.bytes = widths[rng.Intn(len(widths))]
		switch op.kind {
		case 0: // TouchRange: random offset incl. unaligned, page-crossing runs
			op.off = rng.Int63n(limit / 2)
			maxN := (limit - op.off) / int64(op.bytes)
			if maxN < 1 {
				continue
			}
			op.n = 1 + rng.Intn(int(min(maxN, 9000)))
		case 1: // TouchSpans: 1–3 spans, strides forward/backward/strided
			op.n = 1 + rng.Intn(2000)
			nspans := 1 + rng.Intn(3)
			for s := 0; s < nspans; s++ {
				b := widths[rng.Intn(len(widths))]
				stride := int64(b) * []int64{1, 1, 1, -1, 2, 8}[rng.Intn(6)]
				span := Span{Stride: stride, Bytes: b, Write: rng.Intn(2) == 0}
				extent := stride * int64(op.n-1)
				lo, hi := int64(0), extent+int64(b)
				if stride < 0 {
					lo, hi = extent, int64(b)
				}
				if hi-lo >= limit {
					op.n = 1
					extent, lo, hi = 0, 0, int64(b)
				}
				span.Addr = uint64(rng.Int63n(limit-(hi-lo)) - lo)
				op.spans = append(op.spans, span)
			}
			if rng.Intn(2) == 0 {
				op.post = []float64{0.25, 1.5}
			}
		case 2: // lone Touch
			op.off = rng.Int63n(limit - 16)
			op.n = 1
		}
		ops = append(ops, op)
	}
	return ops
}

// TestRangePropertyOracle draws fixed-seed random programs — random element
// widths, offsets, lengths, strides, page-crossing runs, reads and writes,
// with lone Touches perturbing filter/prefetcher/MSHR state in between — and
// asserts that executing them through the range APIs (and so through the
// batched miss pipeline where eligible) is bit-identical to the per-element
// Touch loop on every device preset: same cycles, same access counters, same
// full memory-system summary including DRAM queue cycles.
func TestRangePropertyOracle(t *testing.T) {
	const elems = 1 << 15
	for _, spec := range machine.All() {
		rng := rand.New(rand.NewSource(0x5eed5eed))
		for prog := 0; prog < 4; prog++ {
			ops := randRangeProgram(rng, elems)
			ref := runPattern(t, spec, elems, func(c *Core, a *F64) {
				base := a.Addr(0)
				for _, op := range ops {
					switch op.kind {
					case 0, 2:
						for i := 0; i < op.n; i++ {
							c.Touch(base+uint64(op.off)+uint64(i*op.bytes), op.bytes, op.write)
						}
					case 1:
						for i := 0; i < op.n; i++ {
							for _, s := range op.spans {
								c.Touch(base+s.Addr+uint64(int64(i)*s.Stride), s.Bytes, s.Write)
							}
							for _, p := range op.post {
								c.Cycles(p)
							}
						}
					}
				}
			})
			got := runPattern(t, spec, elems, func(c *Core, a *F64) {
				base := a.Addr(0)
				for _, op := range ops {
					switch op.kind {
					case 0:
						c.TouchRange(base+uint64(op.off), op.bytes, op.n, op.write)
					case 2:
						c.Touch(base+uint64(op.off), op.bytes, op.write)
					case 1:
						spans := make([]Span, len(op.spans))
						copy(spans, op.spans)
						for s := range spans {
							spans[s].Addr += base
						}
						c.TouchSpans(op.n, spans, op.post)
					}
				}
			})
			if got != ref {
				t.Errorf("%s/prog%d: range APIs diverge from element path:\n got %+v\nwant %+v",
					spec.Name, prog, got, ref)
			}
		}
	}
}

// TestParallelRangeOracle asserts the batched pipeline under the event
// engine: a multi-core ParallelRange whose bodies stream TouchRange bursts
// (read phase, then write phase) must be bit-identical to the same schedule
// charged element by element, on every preset at its full core count — and
// both must read the same under 1, 2 and 4 host Ps.
func TestParallelRangeOracle(t *testing.T) {
	const elems = 1 << 14
	// run returns both regions' wall and per-core times, and the counters.
	run := func(spec machine.Spec, ranged bool) ([]float64, Summary) {
		m := MustNew(spec)
		a := m.MustNewF64(elems)
		body := func(c *Core, lo, hi int, write bool) {
			if ranged {
				c.TouchRange(a.Addr(lo), 8, hi-lo, write)
				return
			}
			for i := lo; i < hi; i++ {
				c.Touch(a.Addr(i), 8, write)
			}
		}
		res := m.ParallelRange(spec.Cores, elems, Static, 0, func(c *Core, lo, hi int) {
			body(c, lo, hi, false)
		})
		res2 := m.ParallelRange(spec.Cores, elems, Dynamic, 64, func(c *Core, lo, hi int) {
			body(c, lo, hi, true)
		})
		times := append([]float64{res.Cycles, res2.Cycles}, res.PerCore...)
		return append(times, res2.PerCore...), m.Stats()
	}
	for _, spec := range machine.All() {
		refC, refS := run(spec, false)
		atHostProcs(func(procs int) {
			for _, ranged := range []bool{false, true} {
				if gotC, gotS := run(spec, ranged); !slices.Equal(gotC, refC) || gotS != refS {
					t.Errorf("%s GOMAXPROCS=%d ranged=%v: parallel TouchRange diverges: got (%v,%+v) want (%v,%+v)",
						spec.Name, procs, ranged, gotC, gotS, refC, refS)
				}
			}
		})
	}
}

// TestFusedPathDeterminism runs an identical mixed single/multi-core
// workload twice on every preset and requires exact agreement — the fused
// lookup, memo layers and MSHR ring must not introduce any host-dependent
// state.
func TestFusedPathDeterminism(t *testing.T) {
	run := func(spec machine.Spec) (float64, Summary) {
		m := MustNew(spec)
		a := m.MustNewF64(1 << 14)
		m.ParallelFor(spec.Cores, 1<<14, Static, 0, func(c *Core, i int) {
			a.Store(c, i, a.Load(c, (i*7)&(1<<14-1))+1)
		})
		res := m.RunSeq(func(c *Core) {
			c.TouchRange(a.Addr(0), 8, 1<<14, false)
		})
		return res.Cycles, m.Stats()
	}
	for _, spec := range machine.All() {
		c1, s1 := run(spec)
		c2, s2 := run(spec)
		if c1 != c2 || s1 != s2 {
			t.Errorf("%s: nondeterministic: run1=(%v,%+v) run2=(%v,%+v)", spec.Name, c1, s1, c2, s2)
		}
	}
}
