// Package tlb models translation lookaside buffers and the cost of Sv39
// page-table walks.
//
// TLB behaviour matters for the paper's transposition experiment: the naive
// column-major walk of an 8192×8192 double matrix strides 64 KiB between
// consecutive accesses, touching a new 4 KiB page every time — the D1's
// 10-entry D-uTLB and 128-entry jTLB (and the U74's 40-entry DTLB / 512-entry
// L2 TLB, §3.1) thrash long before the caches do. Blocking restores page
// locality, which is part of why it wins on every device.
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//
//simlint:deterministic
package tlb

import (
	"fmt"

	"riscvmem/internal/units"
)

// Config describes one TLB level.
type Config struct {
	Name    string
	Entries int
	// Ways is the associativity; Ways == Entries models a fully associative
	// TLB (the D1's uTLB), Ways == 1 a direct-mapped one (the U74's L2 TLB).
	Ways      int
	PageShift uint // log2(page size); 12 for the 4 KiB pages used throughout
}

// Validate checks structural consistency.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 || c.Ways > c.Entries {
		return fmt.Errorf("tlb %s: bad entries/ways %d/%d", c.Name, c.Entries, c.Ways)
	}
	if c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb %s: entries %d not divisible by ways %d", c.Name, c.Entries, c.Ways)
	}
	if sets := int64(c.Entries / c.Ways); !units.IsPow2(sets) {
		return fmt.Errorf("tlb %s: set count %d not a power of two", c.Name, sets)
	}
	if c.PageShift == 0 {
		return fmt.Errorf("tlb %s: zero page shift", c.Name)
	}
	return nil
}

// Stats counts lookups.
type Stats struct {
	Hits   uint64
	Misses uint64
}

type entry struct {
	vpn   uint64
	used  uint64
	valid bool
}

// memoEntries sizes the direct-mapped lookup memo; a power of two.
const memoEntries = 64

// wayMemo remembers which way last held a page so repeated lookups of hot
// pages skip the associative scan — decisive for the fully-associative
// uTLBs (up to 40 ways) that sit on every simulated access. Purely an
// accelerator: each use re-validates against the authoritative entry, so
// hit/miss outcomes, recency and statistics are unchanged.
type wayMemo struct {
	key uint64 // vpn + 1; 0 means empty
	way int32
}

// TLB is one translation cache level, LRU-replaced within each set.
type TLB struct {
	cfg Config
	// entries holds all sets contiguously (set s occupies
	// entries[s*ways : (s+1)*ways]) — one indirection per lookup.
	entries []entry
	ways    int
	setMask uint64
	clock   uint64

	// Repeat-hit batcher: consecutive lookups of the same page — the
	// dominant pattern, since a kernel touches a page's 64 lines back to
	// back — are only counted here, and folded into the clock, the entry's
	// recency stamp and the statistics on the next different-page
	// operation. The folded state is exactly what the unbatched sequence
	// produces: clock advances by one per lookup, the entry's stamp takes
	// the final clock value, and nothing else observes the interim states.
	lastVpn uint64 // vpn+1 of the last hit; 0 = none
	lastIdx int32  // index into entries of that hit
	pending uint64 // deferred repeat hits

	memo  [memoEntries]wayMemo
	stats Stats
}

// Stats returns the accumulated lookup counters.
func (t *TLB) Stats() Stats {
	t.flush()
	return t.stats
}

// flush folds deferred repeat hits into the clock, recency and statistics.
func (t *TLB) flush() {
	if t.pending > 0 {
		t.clock += t.pending
		t.entries[t.lastIdx].used = t.clock
		t.stats.Hits += t.pending
		t.pending = 0
	}
}

// New builds a TLB from cfg.
func New(cfg Config) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Entries / cfg.Ways
	return &TLB{
		cfg:     cfg,
		entries: make([]entry, cfg.Entries),
		ways:    cfg.Ways,
		setMask: uint64(nsets - 1),
	}, nil
}

// MustNew is New but panics on error; for validated presets.
func MustNew(cfg Config) *TLB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Lookup reports whether the page containing vaddr is cached, updating
// recency and statistics. It does not insert on miss; composition across
// levels is explicit via Insert.
func (t *TLB) Lookup(vaddr uint64) bool {
	vpn := vaddr >> t.cfg.PageShift
	if t.lastVpn == vpn+1 {
		t.pending++ // repeat hit: fold lazily (see flush)
		return true
	}
	return t.lookupCold(vpn)
}

// lookupCold handles a lookup of a page other than the immediately
// preceding one: fold any deferred hits, then walk memo and set.
func (t *TLB) lookupCold(vpn uint64) bool {
	t.flush()
	t.clock++
	m := &t.memo[vpn&(memoEntries-1)]
	base := int(vpn&t.setMask) * t.ways
	if m.key == vpn+1 {
		if e := &t.entries[base+int(m.way)]; e.valid && e.vpn == vpn {
			e.used = t.clock
			t.stats.Hits++
			t.lastVpn, t.lastIdx = vpn+1, int32(base+int(m.way))
			return true
		}
	}
	set := t.entries[base : base+t.ways]
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].used = t.clock
			m.key, m.way = vpn+1, int32(i)
			t.stats.Hits++
			t.lastVpn, t.lastIdx = vpn+1, int32(base+i)
			return true
		}
	}
	t.stats.Misses++
	t.lastVpn = 0
	return false
}

// Insert caches the translation for the page containing vaddr, evicting the
// LRU entry of its set if needed.
func (t *TLB) Insert(vaddr uint64) {
	vpn := vaddr >> t.cfg.PageShift
	// Inserting may evict the batcher's entry (and needs fresh recency
	// stamps for its LRU choice): fold and invalidate it first.
	t.flush()
	t.lastVpn = 0
	base := int(vpn&t.setMask) * t.ways
	set := t.entries[base : base+t.ways]
	t.clock++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].used = t.clock // refresh
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	set[victim] = entry{vpn: vpn, used: t.clock, valid: true}
	t.memo[vpn&(memoEntries-1)] = wayMemo{key: vpn + 1, way: int32(victim)}
}

// Reset clears entries and statistics.
func (t *TLB) Reset() {
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	t.clock = 0
	t.memo = [memoEntries]wayMemo{}
	t.lastVpn, t.pending = 0, 0
	t.stats = Stats{}
}

// Walker charges the cost of resolving a translation miss. Sv39 uses a
// three-level table; we charge a fixed per-level cost calibrated to the
// device (page-table entries mostly hit in L2/DRAM; modelling the walk as a
// latency constant keeps the simulator first-order while preserving the
// "column walks thrash the TLB" effect the paper's blocking results rely on).
type Walker struct {
	Levels         int     // 3 for Sv39
	CyclesPerLevel float64 // per-level memory cost
	Walks          uint64  // statistic
}

// Walk returns the cycle cost of one full table walk.
func (w *Walker) Walk() float64 {
	w.Walks++
	return float64(w.Levels) * w.CyclesPerLevel
}
