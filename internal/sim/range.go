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
//
// Spans that stay in their lines for a run of indices are folded: once an
// iteration of the run misses nothing and leaves the L0 filter as the one
// before it did, the rest up to the run's last repeat its hits, counted in
// one hierarchy call, with only their charges added (DESIGN §4.1).
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
	// A lone span's same-line accesses are filter hits already, and a column
	// span leaves its line every iteration: neither has a run to fold.
	lineSize := int64(c.lineMask + 1)
	noRuns := len(spans) == 1
	for s := range spans {
		noRuns = noRuns || spans[s].Stride >= lineSize || -spans[s].Stride >= lineSize
	}
	if noRuns {
		c.spanIters(0, n, spans, issues, post)
		return
	}
	for i := 0; i < n; {
		// The run: indices from i on at which every span stays in its line.
		end := n
		for s := range spans {
			sp := &spans[s]
			off := int64((sp.Addr + uint64(int64(i)*sp.Stride)) & c.lineMask)
			k := int64(n)
			if sp.Stride > 0 {
				k = (lineSize - off + sp.Stride - 1) / sp.Stride
			} else if sp.Stride < 0 {
				k = off/-sp.Stride + 1
			}
			end = min(end, i+int(k))
		}
		if end-i >= 4 {
			c.spanIters(i, i+1, spans, issues, post)
			hits, misses := c.lookups()
			key := c.lastKey
			c.spanIters(i+1, i+2, spans, issues, post)
			hits2, misses2 := c.lookups()
			i += 2
			if misses2 == misses && c.lastKey == key {
				// Iteration i-1 hit every line it looked up, so iterations
				// i..end-2 repeat its hits2-hits lookups exactly.
				c.h.RepeatHits(c.id, (hits2-hits)*uint64(end-1-i))
				for ; i < end-1; i++ {
					for _, is := range issues {
						c.now += is
					}
					for _, p := range post {
						c.now += p
					}
				}
			}
		}
		c.spanIters(i, end, spans, issues, post)
		i = end
	}
}

// lookups returns the core's L1 hits and its L1 plus µTLB misses.
func (c *Core) lookups() (hits, misses uint64) {
	l1 := c.h.L1Stats(c.id)
	ut, _ := c.h.TLBStats(c.id)
	return l1.Hits, l1.Misses + ut.Misses
}

// spanIters runs iterations [from, to) of TouchSpans' element loop: per
// span the L0 filter check, or the full lookup, then the post charges.
func (c *Core) spanIters(from, to int, spans []Span, issues, post []float64) {
	for i := from; i < to; i++ {
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
