package sim

import (
	"testing"

	"riscvmem/internal/machine"
)

func TestSummaryAggregatesAcrossCores(t *testing.T) {
	m := MustNew(machine.VisionFive())
	a := m.MustNewF64(1 << 14) // 128 KiB: misses guaranteed
	m.ParallelFor(2, len(a.Data), Static, 0, func(c *Core, i int) {
		a.Store(c, i, 1)
	})
	s := m.Stats()
	if s.L1Misses == 0 {
		t.Error("no L1 misses recorded")
	}
	if s.DRAMBytes == 0 {
		t.Error("no DRAM traffic recorded")
	}
	if s.TLBWalks == 0 {
		t.Error("no TLB walks on a cold 128 KiB walk")
	}
	if s.PrefetchFills == 0 {
		t.Error("prefetcher idle on a unit-stride stream")
	}
	if r := s.L1MissRate(); r <= 0 || r > 1 {
		t.Errorf("miss rate %v out of range", r)
	}
}

func TestSummaryZeroSafe(t *testing.T) {
	var s Summary
	if s.L1MissRate() != 0 {
		t.Error("zero-activity miss rate should be 0")
	}
}

func TestStreamTrafficAtLeastCounted(t *testing.T) {
	// Write-allocate means real DRAM traffic ≥ the logical kernel traffic.
	m := MustNew(machine.MangoPiD1())
	n := 1 << 14
	a := m.MustNewF64(n)
	b := m.MustNewF64(n)
	m.RunSeq(func(c *Core) {
		for i := 0; i < n; i++ {
			a.Store(c, i, b.Load(c, i))
		}
	})
	s := m.Stats()
	logical := uint64(16 * n) // STREAM-counted copy bytes
	if s.DRAMBytes < logical {
		t.Errorf("DRAM bytes %d below logical traffic %d", s.DRAMBytes, logical)
	}
}
