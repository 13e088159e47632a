package sim

// Bulk range APIs: line-granular charging of unit-stride access streams.
//
// A kernel inner loop that touches elements one at a time pays the L0 filter
// check and the issue charge per element. The range APIs charge the same
// accesses line-at-a-time: one full lookup (Core.access) per line touched,
// the line's other elements by repeated addition of the issue and post
// charges. They are defined to be *exactly* equivalent to the corresponding
// per-element Touch loop — same simulated cycles bit for bit, same
// cache/TLB/DRAM statistics, same replacement and prefetcher state — which
// the oracle and property tests in range_test.go and the kernel packages
// assert on every device preset.

// Span describes one unit-stride element stream inside a TouchSpans batch.
type Span struct {
	Addr   uint64 // simulated byte address of the stream's element 0
	Stride int64  // byte distance between consecutive elements
	Bytes  int    // element width in bytes (sets the SIMD issue rate)
	Write  bool
}

// TouchRange charges n consecutive elemBytes-wide accesses starting at addr,
// equivalent to calling Touch(addr+i*elemBytes, elemBytes, write) for every
// i in [0,n). Elements sharing a cache line are satisfied by the L0 line
// filter after the line's first access, so the full lookup path runs once
// per line touched.
func (c *Core) TouchRange(addr uint64, elemBytes, n int, write bool) {
	if n <= 0 {
		return
	}
	if write {
		c.Stores += uint64(n)
	} else {
		c.Loads += uint64(n)
	}
	c.touchLines(addr, uint64(elemBytes), n, write, c.issueCost(elemBytes), nil)
}

// touchLines charges n unit-stride elemBytes-wide accesses from addr, each
// element followed by the post charges — exactly the per-element loop
// { Touch(addr+i*step); for _, p := range post { Cycles(p) } }, line by
// line: the L0 filter check and one full lookup per line touched, with issue
// and post charges accumulated element by element (repeated addition, not
// multiplication: bit-identical float rounding to the per-element path is
// part of the API contract). Access counters are the caller's.
func (c *Core) touchLines(addr uint64, step uint64, n int, write bool, issue float64, post []float64) {
	lineSize := c.lineMask + 1
	for n > 0 {
		line := addr &^ c.lineMask
		// Elements whose start address lies within this line.
		span := int((line + lineSize - addr + step - 1) / step)
		if span > n {
			span = n
		}
		want := line | 1
		key := c.lastKey &^ 2
		if write {
			want, key = line|3, c.lastKey
		}
		first := 0
		if key != want {
			c.access(addr, line, write, issue)
			first = 1
			for _, p := range post {
				c.now += p
			}
		}
		for k := first; k < span; k++ {
			c.now += issue
			for _, p := range post {
				c.now += p
			}
		}
		addr += uint64(span) * step
		n -= span
	}
}

// TouchSpans charges n interleaved element accesses across several streams:
// for each index i in [0,n), every span's element i is touched in span
// order, then each cost in post is added to the core clock. It is exactly
// equivalent to the per-element loop
//
//	for i := 0; i < n; i++ {
//	    for _, s := range spans { c.Touch(s.Addr+i*s.Stride, s.Bytes, s.Write) }
//	    for _, p := range post  { c.Cycles(p) }
//	}
//
// and exists because kernel loops interleave their arrays (load b[i], load
// c[i], store a[i], …) — per-array bursts would reorder the access stream
// and change the simulated timing. post carries the loop body's non-memory
// charges (Flops/IntOps costs precomputed via FlopCycles and friends).
// Callers may reuse the spans slice across calls, mutating Addr in place.
// A single forward unit-stride span has no interleaving to preserve and is
// charged line by line like TouchRange.
func (c *Core) TouchSpans(n int, spans []Span, post []float64) {
	if n <= 0 {
		return
	}
	if len(spans) == 1 && spans[0].Stride > 0 && spans[0].Stride == int64(spans[0].Bytes) {
		s := spans[0]
		if s.Write {
			c.Stores += uint64(n)
		} else {
			c.Loads += uint64(n)
		}
		c.touchLines(s.Addr, uint64(s.Bytes), n, s.Write, c.issueCost(s.Bytes), post)
		return
	}
	var issueBuf [4]float64
	issues := issueBuf[:0]
	if len(spans) > len(issueBuf) {
		issues = make([]float64, 0, len(spans))
	}
	for s := range spans {
		if spans[s].Write {
			c.Stores += uint64(n)
		} else {
			c.Loads += uint64(n)
		}
		issues = append(issues, c.issueCost(spans[s].Bytes))
	}
	for i := 0; i < n; i++ {
		for s := range spans {
			sp := &spans[s]
			addr := sp.Addr + uint64(int64(i)*sp.Stride)
			line := addr &^ c.lineMask
			if sp.Write {
				if c.lastKey == line|3 {
					c.now += issues[s]
					continue
				}
			} else if c.lastKey&^2 == line|1 {
				c.now += issues[s]
				continue
			}
			c.access(addr, line, sp.Write, issues[s])
		}
		for _, p := range post {
			c.now += p
		}
	}
}
