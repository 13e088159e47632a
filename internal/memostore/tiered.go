package memostore

// Tiered composes the memory LRU over the disk store: Get falls through
// memory to disk (promoting disk hits into memory, so a key pays the disk
// read once per process), Put writes through to both.
type Tiered struct {
	mem  *Memory
	disk *Disk
}

// NewTiered builds the two-tier store. mem must be non-nil; a nil disk
// yields a memory-only store (what a Runner without a cache directory
// uses).
func NewTiered(mem *Memory, disk *Disk) *Tiered {
	if mem == nil {
		mem = NewMemory(0)
	}
	return &Tiered{mem: mem, disk: disk}
}

// Memory returns the L1 tier.
func (t *Tiered) Memory() *Memory { return t.mem }

// Disk returns the L2 tier; nil for a memory-only store.
func (t *Tiered) Disk() *Disk { return t.disk }

// Get serves from the first tier that has the key.
func (t *Tiered) Get(key Key) (any, Tier, bool) {
	if v, tier, ok := t.mem.Get(key); ok {
		return v, tier, ok
	}
	if t.disk == nil {
		return nil, TierNone, false
	}
	v, tier, ok := t.disk.Get(key)
	if ok {
		t.mem.Put(key, v)
	}
	return v, tier, ok
}

// Put stores into memory and through to disk.
func (t *Tiered) Put(key Key, v any) {
	t.mem.Put(key, v)
	if t.disk != nil {
		t.disk.Put(key, v)
	}
}

// Stats merges the tiers' counters.
func (t *Tiered) Stats() Stats {
	s := t.mem.Stats()
	if t.disk != nil {
		d := t.disk.Stats()
		s.DiskHits, s.DiskMisses = d.DiskHits, d.DiskMisses
		s.DiskCorrupt = d.DiskCorrupt
		s.DiskWrites, s.DiskWriteErrors = d.DiskWrites, d.DiskWriteErrors
	}
	return s
}
