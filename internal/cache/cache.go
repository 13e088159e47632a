// Package cache implements a set-associative cache timing model.
//
// The model is structural, not functional: it tracks tags, validity, dirt and
// recency so that hit/miss/writeback sequences are exact for a given access
// stream, while the actual data payload lives elsewhere (the simulator keeps
// kernel data in ordinary Go slices). Write-back and write-allocate policies
// match the devices studied in the paper; replacement is pluggable because
// the paper's devices differ exactly there (LRU-like on the C906 and the
// x86/ARM parts, random replacement on the SiFive U74's L1 and L2).
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//simlint:deterministic
package cache

import (
	"fmt"

	"riscvmem/internal/units"
)

// Policy selects the replacement policy of a cache.
type Policy int

const (
	// LRU evicts the least recently used way.
	LRU Policy = iota
	// Random evicts a pseudo-randomly chosen way (deterministically seeded;
	// the U74's "random re-placement policy" from the paper's §3.1).
	Random
	// FIFO evicts ways in insertion order.
	FIFO
	// PLRU is tree-based pseudo-LRU, the common hardware approximation.
	PLRU
)

// String returns the conventional short name of the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case Random:
		return "random"
	case FIFO:
		return "FIFO"
	case PLRU:
		return "PLRU"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config describes one cache level.
type Config struct {
	Name     string // e.g. "L1D", used in error and stats reporting
	Size     int64  // total capacity in bytes
	Ways     int    // associativity; Ways == Size/LineSize means fully associative
	LineSize int64  // bytes per line
	Policy   Policy
	Seed     uint64 // PRNG seed for Random; ignored otherwise
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int64 { return c.Size / (int64(c.Ways) * c.LineSize) }

// Validate checks the configuration for structural consistency.
func (c Config) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: size, line size and ways must be positive", c.Name)
	}
	if !units.IsPow2(c.LineSize) {
		return fmt.Errorf("cache %s: line size %d is not a power of two", c.Name, c.LineSize)
	}
	if c.Size%(int64(c.Ways)*c.LineSize) != 0 {
		return fmt.Errorf("cache %s: size %d is not divisible by ways*line (%d*%d)",
			c.Name, c.Size, c.Ways, c.LineSize)
	}
	if !units.IsPow2(c.Sets()) {
		return fmt.Errorf("cache %s: set count %d is not a power of two", c.Name, c.Sets())
	}
	return nil
}

// Stats accumulates access counts for one cache instance.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty evictions
	Installs   uint64 // lines brought in (demand misses + explicit installs)
}

// Accesses returns the total number of demand accesses observed.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate returns hits/accesses, or 0 when no accesses were made.
func (s Stats) HitRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Hits) / float64(a)
	}
	return 0
}

// line packs one cache line's metadata into two words so a set scan loads
// half the memory of a field-per-flag layout and the tag+valid match is a
// single masked compare: meta holds tag<<2 | dirty<<1 | valid, used holds
// the LRU timestamp / FIFO sequence.
type line struct {
	meta uint64
	used uint64
}

const (
	lineValid = 1 << 0
	lineDirty = 1 << 1
	tagShift  = 2
)

// memoEntries sizes the direct-mapped way memo; a power of two.
const memoEntries = 256

// wayMemo remembers which way last held a line so repeated accesses to hot
// lines skip the associative scan. It is purely an accelerator: every use
// re-validates the way against the authoritative tag state, so hit/miss
// outcomes, replacement decisions and statistics are identical with or
// without it.
type wayMemo struct {
	key uint64 // line number + 1; 0 means empty
	way int32
}

// Cache is one set-associative cache level. All sets live in one contiguous
// line array (set s occupies lines[s*ways : (s+1)*ways]) so the per-access
// path costs a single indirection.
type Cache struct {
	cfg       Config
	lines     []line   // all sets, contiguous
	plru      []uint64 // per-set PLRU tree bits
	seq       []uint64 // per-set FIFO insertion counters
	touched   []int32  // sets installed into since the last Reset
	ways      int
	lineShift uint
	setShift  uint
	setMask   uint64
	clock     uint64 // global recency counter
	rng       uint64 // xorshift state for Random
	memo      [memoEntries]wayMemo
	Stats     Stats
}

// Result reports the outcome of a demand access.
type Result struct {
	Hit bool
	// Evicted is the line-aligned byte address of the victim when a valid
	// line was displaced by this access; EvictedValid reports whether a
	// victim existed and EvictedDirty whether it requires a writeback.
	Evicted      uint64
	EvictedValid bool
	EvictedDirty bool
}

// New builds a cache from cfg. It returns an error when cfg is inconsistent.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, nsets*int64(cfg.Ways)),
		plru:      make([]uint64, nsets),
		seq:       make([]uint64, nsets),
		ways:      cfg.Ways,
		lineShift: units.Log2(cfg.LineSize),
		setShift:  units.Log2(nsets),
		setMask:   uint64(nsets - 1),
		rng:       cfg.Seed | 1, // xorshift state must be nonzero
	}, nil
}

// MustNew is New but panics on configuration errors; used for the fixed
// device presets which are validated by tests.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// LineSize returns the cache line size in bytes.
func (c *Cache) LineSize() int64 { return c.cfg.LineSize }

// find returns the index into c.lines holding line number ln, consulting the
// way memo before falling back to the associative scan, or -1 on a miss.
// base is the set's first index (set*ways); tag the line's tag.
func (c *Cache) find(base int, ln, tag uint64) int {
	want := tag<<tagShift | lineValid
	m := &c.memo[ln&(memoEntries-1)]
	if m.key == ln+1 {
		if c.lines[base+int(m.way)].meta&^lineDirty == want {
			return base + int(m.way)
		}
	}
	set := c.lines[base : base+c.ways]
	for i := range set {
		if set[i].meta&^lineDirty == want {
			m.key, m.way = ln+1, int32(i)
			return base + i
		}
	}
	return -1
}

// findScan is find without the way-memo probe, for callers whose lookups
// have no temporal locality (prefetch residency checks): a cold memo line
// costs a host cache miss and never hits there.
func (c *Cache) findScan(base int, tag uint64) int {
	want := tag<<tagShift | lineValid
	set := c.lines[base : base+c.ways]
	for i := range set {
		if set[i].meta&^lineDirty == want {
			return base + i
		}
	}
	return -1
}

// Access performs a demand read or write of the line containing addr,
// allocating on miss (write-allocate) and reporting any eviction. It is
// fused twice over: one tag lookup both detects the hit and applies the
// recency/dirty update (no Probe-then-Access pair), and on a miss the same
// scan has already located the install victim (first invalid way, or the
// LRU/FIFO minimum) so no second walk runs.
func (c *Cache) Access(addr uint64, write bool) Result {
	return c.access(addr>>c.lineShift, write, &c.Stats)
}

// AccessLine is Access for a precomputed line number, counting into *st
// instead of c.Stats; Result, timing and replacement state are identical.
// Its only caller is bench/ladder.go's cache.access_ns rung; it goes when a
// benchmark PR retires that rung.
func (c *Cache) AccessLine(ln uint64, write bool, st *Stats) Result {
	return c.access(ln, write, st)
}

// access is the fused demand path shared by Access and AccessLine.
func (c *Cache) access(ln uint64, write bool, st *Stats) Result {
	set, tag := int(ln&c.setMask), ln>>c.setShift
	base := set * c.ways
	c.clock++
	want := tag<<tagShift | lineValid
	m := &c.memo[ln&(memoEntries-1)]
	if m.key == ln+1 {
		if l := &c.lines[base+int(m.way)]; l.meta&^lineDirty == want {
			if c.cfg.Policy != FIFO { // FIFO ignores recency on hit
				l.used = c.clock
			}
			if write {
				l.meta |= lineDirty
			}
			c.touchPLRU(set, int(m.way))
			st.Hits++
			return Result{Hit: true}
		}
	}
	lines := c.lines[base : base+c.ways]
	victim, minUsed, invalidAt := -1, ^uint64(0), -1
	for i := range lines {
		l := &lines[i]
		if l.meta&^lineDirty == want {
			m.key, m.way = ln+1, int32(i)
			if c.cfg.Policy != FIFO {
				l.used = c.clock
			}
			if write {
				l.meta |= lineDirty
			}
			c.touchPLRU(set, i)
			st.Hits++
			return Result{Hit: true}
		}
		if l.meta&lineValid == 0 {
			if invalidAt < 0 {
				invalidAt = i
			}
		} else if l.used < minUsed {
			victim, minUsed = i, l.used
		}
	}
	st.Misses++
	if invalidAt >= 0 { // the first invalid way always wins, as in install
		victim = invalidAt
	} else if c.cfg.Policy == Random || c.cfg.Policy == PLRU {
		victim = c.pickVictim(set)
	}
	return c.installAt(set, victim, tag, write, st)
}

// installAt installs into a pre-selected victim way (from access's fused
// scan), identical to install's LRU/FIFO choice.
func (c *Cache) installAt(set, victim int, tag uint64, dirty bool, st *Stats) Result {
	base := set * c.ways
	var res Result
	if v := &c.lines[base+victim]; v.meta&lineValid != 0 {
		res.EvictedValid = true
		res.EvictedDirty = v.meta&lineDirty != 0
		res.Evicted = ((v.meta >> tagShift << c.setShift) | uint64(set)) << c.lineShift
		if res.EvictedDirty {
			st.Writebacks++
		}
	}
	meta := tag<<tagShift | lineValid
	if dirty {
		meta |= lineDirty
	}
	if c.seq[set] == 0 {
		c.touched = append(c.touched, int32(set))
	}
	c.seq[set]++
	c.lines[base+victim] = line{meta: meta, used: c.clock}
	if c.cfg.Policy == FIFO {
		c.lines[base+victim].used = c.seq[set]
	}
	ln := tag<<c.setShift | uint64(set)
	c.memo[ln&(memoEntries-1)] = wayMemo{key: ln + 1, way: int32(victim)}
	c.touchPLRU(set, victim)
	st.Installs++
	return res
}

// Probe reports whether the line containing addr is present, without
// changing any replacement state.
func (c *Cache) Probe(addr uint64) bool {
	ln := addr >> c.lineShift
	set, tag := int(ln&c.setMask), ln>>c.setShift
	return c.findScan(set*c.ways, tag) >= 0
}

// Install brings the line containing addr into the cache without counting a
// demand access (used for prefetch fills). It reports the eviction exactly
// like Access. Installing an already-present line refreshes its recency.
func (c *Cache) Install(addr uint64, dirty bool) Result {
	ln := addr >> c.lineShift
	set, tag := int(ln&c.setMask), ln>>c.setShift
	base := set * c.ways
	c.clock++
	if i := c.find(base, ln, tag); i >= 0 {
		l := &c.lines[i]
		if c.cfg.Policy != FIFO {
			l.used = c.clock
		}
		if dirty {
			l.meta |= lineDirty
		}
		c.touchPLRU(set, i-base)
		return Result{Hit: true}
	}
	return c.install(set, tag, dirty)
}

// Invalidate drops the line containing addr if present, reporting whether it
// was dirty (the caller owns the resulting writeback traffic).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	ln := addr >> c.lineShift
	set, tag := int(ln&c.setMask), ln>>c.setShift
	if i := c.find(set*c.ways, ln, tag); i >= 0 {
		c.lines[i].meta &^= lineValid
		return true, c.lines[i].meta&lineDirty != 0
	}
	return false, false
}

// Reset empties the cache and zeroes the statistics. Its cost follows what
// was used, not the capacity: installAt is the only place a line becomes
// valid, so only the touched sets hold any state.
func (c *Cache) Reset() {
	for _, set := range c.touched {
		clear(c.lines[int(set)*c.ways : (int(set)+1)*c.ways])
		c.plru[set] = 0
		c.seq[set] = 0
	}
	c.touched = c.touched[:0]
	c.clock = 0
	c.rng = c.cfg.Seed | 1
	c.memo = [memoEntries]wayMemo{}
	c.Stats = Stats{}
}

// ValidLines counts currently valid lines (used by capacity invariant tests).
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].meta&lineValid != 0 {
			n++
		}
	}
	return n
}

func (c *Cache) install(set int, tag uint64, dirty bool) Result {
	base := set * c.ways
	victim := -1
	switch c.cfg.Policy {
	case Random, PLRU:
		for i := base; i < base+c.ways; i++ {
			if c.lines[i].meta&lineValid == 0 {
				victim = i - base
				break
			}
		}
		if victim < 0 {
			victim = c.pickVictim(set)
		}
	default:
		// LRU and FIFO evict the minimum `used` stamp; one pass finds the
		// first invalid way or, failing that, that victim.
		min := ^uint64(0)
		for i := base; i < base+c.ways; i++ {
			if c.lines[i].meta&lineValid == 0 {
				victim = i - base
				break
			}
			if c.lines[i].used < min {
				victim, min = i-base, c.lines[i].used
			}
		}
	}
	return c.installAt(set, victim, tag, dirty, &c.Stats)
}

func (c *Cache) pickVictim(set int) int {
	switch c.cfg.Policy {
	case Random:
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		return int(c.rng % uint64(c.ways))
	default:
		return c.plruVictim(set)
	}
}

// touchPLRU updates the PLRU tree bits so that `way` becomes protected.
func (c *Cache) touchPLRU(set, way int) {
	if c.cfg.Policy != PLRU {
		return
	}
	bits := c.plru[set]
	node := 1
	lo, hi := 0, c.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			bits |= 1 << uint(node) // point away: right
			node = node * 2
			hi = mid
		} else {
			bits &^= 1 << uint(node) // point away: left
			node = node*2 + 1
			lo = mid
		}
	}
	c.plru[set] = bits
}

// plruVictim walks the tree bits toward the unprotected leaf.
func (c *Cache) plruVictim(set int) int {
	bits := c.plru[set]
	node := 1
	lo, hi := 0, c.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits&(1<<uint(node)) != 0 {
			// bit set means "left was recent": victim on the right
			node = node*2 + 1
			lo = mid
		} else {
			node = node * 2
			hi = mid
		}
	}
	return lo
}
