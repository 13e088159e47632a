package sim

// Summary aggregates the machine's memory-system counters across all cores
// and cache levels — the numbers behind the paper's qualitative explanations
// (miss rates, TLB walk counts, DRAM traffic, prefetch activity). It is a
// plain comparable struct so oracle tests can assert bit-identical runs
// with a single equality check.
type Summary struct {
	L1Hits     uint64
	L1Misses   uint64
	L2Hits     uint64 // zero when the device has no L2
	L2Misses   uint64
	L3Hits     uint64 // zero when the device has no L3
	L3Misses   uint64
	UTLBHits   uint64
	UTLBMisses uint64
	TLBWalks   uint64
	DRAMReads  uint64
	DRAMWrites uint64
	DRAMBytes  uint64
	// QueueCycles is total time DRAM requests spent waiting behind earlier
	// requests on their channel.
	QueueCycles   float64
	PrefetchFills uint64
}

// L1MissRate returns misses / (hits+misses), or 0 with no accesses.
func (s Summary) L1MissRate() float64 { return missRate(s.L1Hits, s.L1Misses) }

func missRate(hits, misses uint64) float64 {
	if t := hits + misses; t > 0 {
		return float64(misses) / float64(t)
	}
	return 0
}

// Stats snapshots the machine's aggregate memory-system counters.
//
// Note that the per-core L0 line filter satisfies repeated same-line
// accesses before they reach the L1 model, so L1Hits counts line-level
// activity, not raw element accesses. L2/L3 counters include fills
// triggered by prefetches, which walk the same shared path as demand
// misses.
func (m *Machine) Stats() Summary {
	var s Summary
	for core := 0; core < m.spec.Cores; core++ {
		l1 := m.h.L1Stats(core)
		s.L1Hits += l1.Hits
		s.L1Misses += l1.Misses
		ut, walks := m.h.TLBStats(core)
		s.UTLBHits += ut.Hits
		s.UTLBMisses += ut.Misses
		s.TLBWalks += walks
	}
	l2 := m.h.L2StatsTotal()
	s.L2Hits, s.L2Misses = l2.Hits, l2.Misses
	l3 := m.h.L3StatsTotal()
	s.L3Hits, s.L3Misses = l3.Hits, l3.Misses
	d := m.h.DRAM().Stats
	s.DRAMReads = d.Reads
	s.DRAMWrites = d.Writes
	s.DRAMBytes = d.Bytes()
	s.QueueCycles = d.QueueCycles
	s.PrefetchFills = m.h.PrefetchFills
	return s
}
