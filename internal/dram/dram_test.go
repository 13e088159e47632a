package dram

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func cfg(channels int, bpc float64) Config {
	return Config{Name: "test", Channels: channels, BytesPerCycle: bpc, LatencyCycles: 100, LineBytes: 64}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "ch0", Channels: 0, BytesPerCycle: 1, LineBytes: 64},
		{Name: "bpc0", Channels: 1, BytesPerCycle: 0, LineBytes: 64},
		{Name: "neglat", Channels: 1, BytesPerCycle: 1, LatencyCycles: -1, LineBytes: 64},
		{Name: "line0", Channels: 1, BytesPerCycle: 1, LineBytes: 0},
		{Name: "npot", Channels: 1, BytesPerCycle: 1, LineBytes: 96},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q unexpectedly valid", c.Name)
		}
	}
	if err := cfg(2, 1.6).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestPeakBandwidth(t *testing.T) {
	c := cfg(2, 1.6) // 2 ch × 1.6 B/cy × 1 GHz = 3.2 GB/s
	got := c.PeakBandwidth(1.0).GBps()
	if math.Abs(got-3.2) > 1e-9 {
		t.Fatalf("peak = %v GB/s, want 3.2", got)
	}
}

func TestSingleRequestLatency(t *testing.T) {
	m := MustNew(cfg(1, 1.0))
	done := m.Request(0, 0, 64, false)
	// latency 100 + 64 bytes at 1 B/cycle = 164.
	if done != 164 {
		t.Fatalf("done = %v, want 164", done)
	}
	if m.Stats.Reads != 1 || m.Stats.BytesRead != 64 {
		t.Fatalf("stats = %+v", m.Stats)
	}
}

func TestQueueingOnSameChannel(t *testing.T) {
	m := MustNew(cfg(1, 1.0))
	m.Request(0, 0, 64, false)          // occupies channel until t=64
	done := m.Request(0, 64, 64, false) // same channel, queued behind
	if done != 64+100+64 {
		t.Fatalf("queued request done = %v, want 228", done)
	}
	if m.Stats.QueueCycles != 64 {
		t.Fatalf("QueueCycles = %v, want 64", m.Stats.QueueCycles)
	}
}

func TestChannelInterleavingAvoidsQueueing(t *testing.T) {
	m := MustNew(cfg(2, 1.0))
	// Lines 0 and 1 hit different channels: both complete at 164.
	d0 := m.Request(0, 0, 64, false)
	d1 := m.Request(0, 64, 64, false)
	if d0 != 164 || d1 != 164 {
		t.Fatalf("done = %v,%v; want 164,164", d0, d1)
	}
	if m.Stats.QueueCycles != 0 {
		t.Fatalf("unexpected queueing: %v", m.Stats.QueueCycles)
	}
}

func TestLateRequestDoesNotQueue(t *testing.T) {
	m := MustNew(cfg(1, 1.0))
	m.Request(0, 0, 64, false)
	done := m.Request(1000, 64, 64, false)
	if done != 1164 {
		t.Fatalf("done = %v, want 1164", done)
	}
	if m.Stats.QueueCycles != 0 {
		t.Fatalf("unexpected queueing: %v", m.Stats.QueueCycles)
	}
}

func TestWriteAccounting(t *testing.T) {
	m := MustNew(cfg(1, 1.0))
	m.Posted(0, 0, 64, true)
	if m.Stats.Writes != 1 || m.Stats.BytesWritten != 64 {
		t.Fatalf("stats = %+v", m.Stats)
	}
	if m.Stats.Bytes() != 64 {
		t.Fatalf("Bytes() = %d, want 64", m.Stats.Bytes())
	}
}

// TestBusyCyclesAndReset: a request keeps its channel busy for its transfer
// time, which the next request on the channel queues behind, and Reset
// frees the channel and zeroes the statistics.
func TestBusyCyclesAndReset(t *testing.T) {
	m := MustNew(cfg(1, 2.0))
	m.Request(0, 0, 64, false) // 32 cycles of transfer
	m.Request(0, 64, 64, false)
	if got := m.Stats.QueueCycles; got != 32 {
		t.Fatalf("QueueCycles = %v, want the first transfer's 32 busy cycles", got)
	}
	m.Reset()
	if m.Stats != (Stats{}) {
		t.Fatal("Reset incomplete")
	}
	if done := m.Request(0, 0, 64, false); done != 132 {
		t.Fatalf("post-reset request done = %v, want 132", done)
	}
}

// Property: a saturating stream on one channel achieves exactly the
// configured service rate; N cores' aggregate throughput never exceeds
// channels × rate.
func TestPropertyServiceRateIsCeiling(t *testing.T) {
	f := func(nReq uint8, chans uint8) bool {
		n := int(nReq)%200 + 50
		c := int(chans)%4 + 1
		m := MustNew(cfg(c, 1.6))
		var last float64
		for i := 0; i < n; i++ {
			done := m.Request(0, uint64(i)*64, 64, false)
			if done > last {
				last = done
			}
		}
		// All requests issued at t=0: total bytes / makespan must be at most
		// the aggregate service rate (latency only helps the bound).
		rate := float64(n*64) / last
		return rate <= float64(c)*1.6+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: request completion times on one channel are monotonically
// non-decreasing when issue times are non-decreasing (FIFO invariant).
func TestPropertyFIFOMonotonic(t *testing.T) {
	f := func(gaps []uint8) bool {
		m := MustNew(cfg(1, 1.0))
		now, prev := 0.0, 0.0
		for _, g := range gaps {
			now += float64(g)
			done := m.Request(now, 0, 64, false)
			if done < prev {
				return false
			}
			prev = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestLineReadEquivalence pins LineRead against a line-sized read Request:
// identical completion times and queueing.
func TestLineReadEquivalence(t *testing.T) {
	cfg := Config{Name: "t", Channels: 2, BytesPerCycle: 0.5, LatencyCycles: 140, LineBytes: 64}
	ref := MustNew(cfg)
	got := MustNew(cfg)
	now := 0.0
	for i := 0; i < 200; i++ {
		addr := uint64(i%7) * 64
		d1 := ref.Request(now, addr, 64, false)
		d2 := got.LineRead(now, addr)
		if d1 != d2 {
			t.Fatalf("request %d diverges: got %v want %v", i, d2, d1)
		}
		now += 3.5
	}
	if got.Stats.QueueCycles != ref.Stats.QueueCycles {
		t.Errorf("queue cycles diverge: got %v want %v", got.Stats.QueueCycles, ref.Stats.QueueCycles)
	}
	if !slices.Equal(got.nextFree, ref.nextFree) {
		t.Errorf("channel state diverges: got %v want %v", got.nextFree, ref.nextFree)
	}
}
