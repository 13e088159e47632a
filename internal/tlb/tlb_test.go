package tlb

import (
	"testing"
	"testing/quick"
)

const page = 4096

func full(entries int) *TLB {
	return MustNew(Config{Name: "utlb", Entries: entries, Ways: entries, PageShift: 12})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "zero", Entries: 0, Ways: 1, PageShift: 12},
		{Name: "ways>entries", Entries: 4, Ways: 8, PageShift: 12},
		{Name: "indivisible", Entries: 10, Ways: 4, PageShift: 12},
		{Name: "npot-sets", Entries: 12, Ways: 4, PageShift: 12},
		{Name: "nopage", Entries: 8, Ways: 8, PageShift: 0},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q unexpectedly valid", cfg.Name)
		}
	}
	// The paper's actual TLB shapes must validate.
	good := []Config{
		{Name: "d1-dutlb", Entries: 10, Ways: 10, PageShift: 12},  // fully assoc, 10 entries
		{Name: "d1-jtlb", Entries: 128, Ways: 2, PageShift: 12},   // 2-way, 128 entries
		{Name: "u74-dtlb", Entries: 40, Ways: 40, PageShift: 12},  // fully assoc, 40 entries
		{Name: "u74-l2tlb", Entries: 512, Ways: 1, PageShift: 12}, // direct mapped
		{Name: "xeon-dtlb", Entries: 64, Ways: 4, PageShift: 12},  // set assoc
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %q: %v", cfg.Name, err)
		}
	}
}

func TestLookupMissThenInsertHit(t *testing.T) {
	tl := full(4)
	if tl.Lookup(0x1000) {
		t.Fatal("cold lookup hit")
	}
	tl.Insert(0x1000)
	if !tl.Lookup(0x1234) { // same page
		t.Fatal("same-page lookup missed after insert")
	}
	if tl.Lookup(0x2000) {
		t.Fatal("different page hit")
	}
	if tl.Stats().Hits != 1 || tl.Stats().Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", tl.Stats())
	}
}

func TestLRUEvictionFullyAssociative(t *testing.T) {
	tl := full(2)
	tl.Insert(0 * page)
	tl.Insert(1 * page)
	tl.Lookup(0 * page) // page 0 most recent
	tl.Insert(2 * page) // evicts page 1
	if !tl.Lookup(0 * page) {
		t.Fatal("page 0 evicted despite recency")
	}
	if tl.Lookup(1 * page) {
		t.Fatal("page 1 survived eviction")
	}
	if !tl.Lookup(2 * page) {
		t.Fatal("page 2 not inserted")
	}
}

func TestInsertRefreshesExisting(t *testing.T) {
	tl := full(2)
	tl.Insert(0 * page)
	tl.Insert(1 * page)
	tl.Insert(0 * page) // refresh, no new entry
	tl.Insert(2 * page) // evicts page 1 (LRU), not page 0
	if !tl.Lookup(0 * page) {
		t.Fatal("refreshed page evicted")
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	tl := MustNew(Config{Name: "dm", Entries: 4, Ways: 1, PageShift: 12})
	tl.Insert(0 * page) // set 0
	tl.Insert(4 * page) // set 0 again: evicts page 0
	if tl.Lookup(0 * page) {
		t.Fatal("direct-mapped conflict did not evict")
	}
	if !tl.Lookup(4 * page) {
		t.Fatal("conflicting page not resident")
	}
}

func TestReset(t *testing.T) {
	tl := full(4)
	tl.Insert(0)
	tl.Lookup(0)
	tl.Reset()
	if tl.Stats() != (Stats{}) {
		t.Fatalf("stats not cleared: %+v", tl.Stats())
	}
	if tl.Lookup(0) {
		t.Fatal("entry survived reset")
	}
}

func TestWalker(t *testing.T) {
	w := Walker{Levels: 3, CyclesPerLevel: 50}
	if got := w.Walk(); got != 150 {
		t.Fatalf("Walk() = %v, want 150", got)
	}
	w.Walk()
	if w.Walks != 2 {
		t.Fatalf("Walks = %d, want 2", w.Walks)
	}
}

// Property: a working set of at most Entries pages, touched round-robin,
// never misses once inserted (fully associative LRU has no conflict misses).
func TestPropertyFullyAssociativeNoConflicts(t *testing.T) {
	f := func(n uint8) bool {
		entries := int(n%16) + 1
		tl := full(entries)
		for p := 0; p < entries; p++ {
			tl.Insert(uint64(p) * page)
		}
		for round := 0; round < 4; round++ {
			for p := 0; p < entries; p++ {
				if !tl.Lookup(uint64(p) * page) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: large-stride page walks (the naive transposition column access)
// on a small TLB miss almost always, while unit-stride walks mostly hit —
// the asymmetry the paper's blocking optimization exploits.
func TestStrideAsymmetry(t *testing.T) {
	tl := full(10) // the D1's D-uTLB size
	walkMisses := 0
	const rowBytes = 8192 * 8 // one 8192-double row = 16 pages apart
	for i := 0; i < 1000; i++ {
		addr := uint64(i) * rowBytes
		if !tl.Lookup(addr) {
			walkMisses++
			tl.Insert(addr)
		}
	}
	tl.Reset()
	seqMisses := 0
	for i := 0; i < 1000; i++ {
		addr := uint64(i) * 8 // unit-stride doubles
		if !tl.Lookup(addr) {
			seqMisses++
			tl.Insert(addr)
		}
	}
	if walkMisses < 900 {
		t.Errorf("column walk missed only %d/1000", walkMisses)
	}
	if seqMisses > 10 {
		t.Errorf("sequential walk missed %d/1000", seqMisses)
	}
}
