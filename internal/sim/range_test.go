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

// touchEach is the per-element loop TouchSpans stands for.
func touchEach(c *Core, n int, spans []Span, post []float64) {
	for i := 0; i < n; i++ {
		for _, s := range spans {
			c.Touch(s.Addr+uint64(int64(i)*s.Stride), s.Bytes, s.Write)
		}
		for _, p := range post {
			c.Cycles(p)
		}
	}
}

// TestTouchSpansOracle asserts that TouchSpans reproduces the interleaved
// per-element loop exactly, including the post charges, on every preset.
// The cases drive the run fold (a run whose check iteration hits everything
// is charged in one hierarchy call) and each of the ways it must decline or
// cut a run. After each case a per-element read sweep over twice the L1
// replays the replacement state: a recency stamp the fold left out of order
// would evict a different line and show up as a miss.
func TestTouchSpansOracle(t *testing.T) {
	const elems = 1 << 14 // 128 KiB: twice the largest preset L1 fits
	// A 4 KiB direct-mapped L1 indexes its sets inside the page offset, so
	// lines one page apart share a set whatever the physical page scatter.
	conflict := machine.RaspberryPi4().WithL1Ways(1)
	conflict.Mem.L1.Size = 4 << 10
	cases := []struct {
		name  string
		specs []machine.Spec
		n     int
		spans func(a *F64) []Span
	}{
		{"three streams", machine.All(), 1500, func(a *F64) []Span {
			return []Span{
				{Addr: a.Addr(0), Stride: 8, Bytes: 8},
				{Addr: a.Addr(3000), Stride: 16, Bytes: 4},
				{Addr: a.Addr(0), Stride: 8, Bytes: 8, Write: true},
			}
		}},
		// Every access evicts the other stream's line: the check iteration
		// misses and the run must be charged element by element.
		{"one L1 set", []machine.Spec{conflict}, 1500, func(a *F64) []Span {
			return []Span{
				{Addr: a.Addr(0), Stride: 8, Bytes: 8},
				{Addr: a.Addr(512), Stride: 8, Bytes: 8, Write: true},
			}
		}},
		// swapRange's shape: a load and a store of the same element. The
		// steady iteration is all filter hits and looks nothing up.
		{"read and write one line", machine.All(), 3000, func(a *F64) []Span {
			return []Span{
				{Addr: a.Addr(40), Stride: 8, Bytes: 8},
				{Addr: a.Addr(40), Stride: 8, Bytes: 8, Write: true},
			}
		}},
		// The descending streams start 16 and 32 bytes into their lines, so
		// the first run ends after 3 iterations; the stride-0 stream never
		// leaves its line.
		{"stride 0 and negative", machine.All(), 1500, func(a *F64) []Span {
			return []Span{
				{Addr: a.Addr(100), Bytes: 8},
				{Addr: a.Addr(9002), Stride: -8, Bytes: 8},
				{Addr: a.Addr(12004), Stride: -4, Bytes: 4, Write: true},
			}
		}},
		// Each stream crosses its lines at its own index, so runs are cut
		// short by whichever span leaves its line first.
		{"misaligned", machine.All(), 1500, func(a *F64) []Span {
			return []Span{
				{Addr: a.Addr(0) + 4, Stride: 8, Bytes: 8},
				{Addr: a.Addr(3000) + 20, Stride: 12, Bytes: 4},
				{Addr: a.Addr(6000) + 36, Stride: 8, Bytes: 8, Write: true},
			}
		}},
		// Eleven pages against MangoPi's 10-entry µTLB: every lookup misses
		// the µTLB, which the check must notice too. Each stream sits one
		// line further into its page, so the lines fill eleven L1 sets and
		// do hit there.
		{"more pages than the µTLB", machine.All(), 400, func(a *F64) []Span {
			sp := make([]Span, 11)
			for p := range sp {
				sp[p] = Span{Addr: a.Addr(512*p + 8*p), Stride: 8, Bytes: 8, Write: p == 5}
			}
			return sp
		}},
	}
	for _, tc := range cases {
		for _, spec := range tc.specs {
			probe := func(c *Core, a *F64) {
				for i := int64(0); i < 2*spec.Mem.L1.Size/8; i++ {
					c.Touch(a.Addr(int(i)), 8, false)
				}
			}
			// Each case runs twice: over cold lines, then over the lines it
			// left resident, where every run can be folded.
			ref := runPattern(t, spec, elems, func(c *Core, a *F64) {
				for range 2 {
					touchEach(c, tc.n, tc.spans(a), []float64{c.Flop32Cycles(2), c.IntCycles(3)})
				}
				probe(c, a)
			})
			got := runPattern(t, spec, elems, func(c *Core, a *F64) {
				for range 2 {
					c.TouchSpans(tc.n, tc.spans(a), []float64{c.Flop32Cycles(2), c.IntCycles(3)})
				}
				probe(c, a)
			})
			if got != ref {
				t.Errorf("%s/%s: TouchSpans diverges from element path:\n got %+v\nwant %+v",
					tc.name, spec.Name, got, ref)
			}
			// Prefetch fills land some lines early; most accesses still miss.
			if tc.name == "one L1 set" && ref.mem.L1Misses < 2*uint64(tc.n) {
				t.Errorf("%s/%s: %d L1 misses, want most span accesses to miss", tc.name, spec.Name, ref.mem.L1Misses)
			}
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
// TouchRange, a TouchSpans batch, or a single Touch (which leaves the L0
// filter, the prefetcher's training and the MSHR ring in a state the next
// range call did not set up itself).
type rangeOp struct {
	kind  int // 0 = TouchRange, 1 = TouchSpans, 2 = Touch
	off   int64
	bytes int
	n     int
	write bool
	spans []Span // offsets in Addr, rebased onto the array per run
	post  []float64
}

// rebase returns a copy of spans moved base bytes up.
func rebase(spans []Span, base uint64) []Span {
	out := slices.Clone(spans)
	for s := range out {
		out[s].Addr += base
	}
	return out
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
// asserts that executing them through the range APIs (the line loop of
// TouchRange and single spans, TouchSpans' run fold and its column loop) is
// bit-identical to the per-element Touch loop on every device preset: same
// cycles, same access counters, same full memory-system summary including
// DRAM queue cycles.
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
						touchEach(c, op.n, rebase(op.spans, base), op.post)
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
						c.TouchSpans(op.n, rebase(op.spans, base), op.post)
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

// TestParallelRangeOracle asserts the range APIs under the event engine: a
// multi-core ParallelRange, once under Static and once under Dynamic, whose
// bodies charge their chunks through the range APIs must be bit-identical to
// the same schedule charged element by element, on every preset at its full
// core count — and both must read the same under 1, 2 and 4 host Ps. The
// bodies are a TouchRange burst (read, then written), a STREAM-TRIAD-shaped
// three-span TouchSpans, whose runs are folded, and a TouchSpans with one
// column span, which takes the element loop.
func TestParallelRangeOracle(t *testing.T) {
	const elems = 1 << 14
	type arrays struct{ a, b, c, col *F64 }
	// chargeSpans charges spans through TouchSpans, or element by element.
	chargeSpans := func(c *Core, ranged bool, n int, spans []Span, post []float64) {
		if ranged {
			c.TouchSpans(n, spans, post)
		} else {
			touchEach(c, n, spans, post)
		}
	}
	bodies := []struct {
		name string
		body func(c *Core, x arrays, lo, hi int, write, ranged bool)
	}{
		{"TouchRange", func(c *Core, x arrays, lo, hi int, write, ranged bool) {
			if ranged {
				c.TouchRange(x.a.Addr(lo), 8, hi-lo, write)
				return
			}
			for i := lo; i < hi; i++ {
				c.Touch(x.a.Addr(i), 8, write)
			}
		}},
		{"triad", func(c *Core, x arrays, lo, hi int, _, ranged bool) {
			chargeSpans(c, ranged, hi-lo, []Span{
				{Addr: x.b.Addr(lo), Stride: 8, Bytes: 8},
				{Addr: x.c.Addr(lo), Stride: 8, Bytes: 8},
				{Addr: x.a.Addr(lo), Stride: 8, Bytes: 8, Write: true},
			}, []float64{c.FlopCycles(2), c.IntCycles(1)})
		}},
		{"column", func(c *Core, x arrays, lo, hi int, _, ranged bool) {
			chargeSpans(c, ranged, hi-lo, []Span{
				{Addr: x.a.Addr(lo), Stride: 8, Bytes: 8},
				{Addr: x.col.Addr(16 * lo), Stride: 16 * 8, Bytes: 8, Write: true},
			}, []float64{c.IntCycles(3)})
		}},
	}
	// run returns both regions' wall and per-core times, and the counters.
	run := func(spec machine.Spec, body func(*Core, arrays, int, int, bool, bool), ranged bool) ([]float64, Summary) {
		m := MustNew(spec)
		x := arrays{m.MustNewF64(elems), m.MustNewF64(elems), m.MustNewF64(elems), m.MustNewF64(16 * elems)}
		res := m.ParallelRange(spec.Cores, elems, Static, 0, func(c *Core, lo, hi int) {
			body(c, x, lo, hi, false, ranged)
		})
		res2 := m.ParallelRange(spec.Cores, elems, Dynamic, 64, func(c *Core, lo, hi int) {
			body(c, x, lo, hi, true, ranged)
		})
		times := append([]float64{res.Cycles, res2.Cycles}, res.PerCore...)
		return append(times, res2.PerCore...), m.Stats()
	}
	for _, spec := range machine.All() {
		for _, b := range bodies {
			refC, refS := run(spec, b.body, false)
			atHostProcs(func(procs int) {
				for _, ranged := range []bool{false, true} {
					if gotC, gotS := run(spec, b.body, ranged); !slices.Equal(gotC, refC) || gotS != refS {
						t.Errorf("%s/%s GOMAXPROCS=%d ranged=%v: parallel range APIs diverge: got (%v,%+v) want (%v,%+v)",
							spec.Name, b.name, procs, ranged, gotC, gotS, refC, refS)
					}
				}
			})
		}
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
