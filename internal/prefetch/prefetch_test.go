package prefetch

import (
	"testing"
	"testing/quick"
)

const line = 64

func observeAll(p *Stride, addrs []uint64) []uint64 {
	var out []uint64
	for _, a := range addrs {
		out = p.Observe(a, out)
	}
	return out
}

func TestStrideDetectsUnitForward(t *testing.T) {
	p := NewStride(StrideConfig{LineSize: line, TrainThreshold: 2})
	// Lines 0,1,2,...: after the training threshold, each access proposes
	// the next line.
	var fired []uint64
	for i := 0; i < 6; i++ {
		fired = p.Observe(uint64(i*line), fired)
	}
	if len(fired) == 0 {
		t.Fatal("unit-stride stream never trained")
	}
	// First proposal must be ahead of the access that triggered it.
	if fired[0] <= 2*line {
		t.Fatalf("first prefetch %d not ahead of trained stream", fired[0])
	}
}

func TestStrideDetectsBackward(t *testing.T) {
	p := NewStride(StrideConfig{LineSize: line, TrainThreshold: 2})
	var fired []uint64
	for i := 20; i >= 10; i-- {
		fired = p.Observe(uint64(i*line), fired)
	}
	if len(fired) == 0 {
		t.Fatal("backward stream never trained")
	}
	// Proposals must move downward.
	if fired[0] >= 20*line {
		t.Fatalf("backward prefetch went forward: %d", fired[0])
	}
}

func TestStrideRespectsMaxStride(t *testing.T) {
	big := NewStride(StrideConfig{LineSize: line, MaxStrideLines: 16, TrainThreshold: 2, MatchWindowLines: 4096})
	var fired []uint64
	// Stride of 32 lines exceeds the 16-line bound: never prefetch.
	for i := 0; i < 20; i++ {
		fired = big.Observe(uint64(i*32*line), fired)
	}
	if len(fired) != 0 {
		t.Fatalf("stride beyond bound fired %d prefetches", len(fired))
	}
	// Stride of 8 lines is within bounds: must fire.
	ok := NewStride(StrideConfig{LineSize: line, MaxStrideLines: 16, TrainThreshold: 2, MatchWindowLines: 4096})
	fired = nil
	for i := 0; i < 20; i++ {
		fired = ok.Observe(uint64(i*8*line), fired)
	}
	if len(fired) == 0 {
		t.Fatal("stride within bound never fired")
	}
}

func TestStrideUnboundedAllowsLargeStrides(t *testing.T) {
	p := NewStride(StrideConfig{LineSize: line, MaxStrideLines: 0, TrainThreshold: 2, MatchWindowLines: 4096})
	var fired []uint64
	for i := 0; i < 20; i++ {
		fired = p.Observe(uint64(i*32*line), fired)
	}
	if len(fired) == 0 {
		t.Fatal("unbounded prefetcher rejected a 32-line stride")
	}
}

func TestStrideRampsDistance(t *testing.T) {
	ramp := NewStride(StrideConfig{LineSize: line, TrainThreshold: 2, InitDistance: 1, MaxDistance: 8, Ramp: true})
	flat := NewStride(StrideConfig{LineSize: line, TrainThreshold: 2, InitDistance: 1, MaxDistance: 8, Ramp: false})
	addrs := make([]uint64, 40)
	for i := range addrs {
		addrs[i] = uint64(i * line)
	}
	r := observeAll(ramp, addrs)
	f := observeAll(flat, addrs)
	if len(r) <= len(f) {
		t.Fatalf("ramping produced %d candidates, flat %d; want ramp > flat", len(r), len(f))
	}
}

func TestStrideRetrainsOnStrideChange(t *testing.T) {
	p := NewStride(StrideConfig{LineSize: line, TrainThreshold: 2})
	var fired []uint64
	for i := 0; i < 8; i++ {
		fired = p.Observe(uint64(i*line), fired)
	}
	n := len(fired)
	if n == 0 {
		t.Fatal("never trained")
	}
	// Change stride to 3 within the match window; the very next observation
	// must not fire (confidence reset).
	fired = p.Observe(uint64(7*line+3*line), fired)
	if len(fired) != n {
		t.Fatalf("fired immediately after stride change: %d -> %d", n, len(fired))
	}
}

func TestStrideSameLineNoTraining(t *testing.T) {
	p := NewStride(StrideConfig{LineSize: line, TrainThreshold: 1})
	var fired []uint64
	for i := 0; i < 10; i++ {
		fired = p.Observe(0, fired)
	}
	if len(fired) != 0 {
		t.Fatalf("same-line accesses fired %d prefetches", len(fired))
	}
}

func TestStrideTracksMultipleStreams(t *testing.T) {
	p := NewStride(StrideConfig{LineSize: line, TrainThreshold: 2, MatchWindowLines: 64})
	var fired []uint64
	// Two interleaved unit-stride streams far apart.
	const gap = 1 << 20
	for i := 0; i < 10; i++ {
		fired = p.Observe(uint64(i*line), fired)
		fired = p.Observe(uint64(gap+i*line), fired)
	}
	// Both streams should be trained: proposals near 0 and near gap.
	var lo, hi bool
	for _, a := range fired {
		if a < gap/2 {
			lo = true
		} else {
			hi = true
		}
	}
	if !lo || !hi {
		t.Fatalf("streams trained: low=%v high=%v, want both", lo, hi)
	}
}

func TestStrideReset(t *testing.T) {
	p := NewStride(StrideConfig{LineSize: line, TrainThreshold: 2})
	var fired []uint64
	for i := 0; i < 8; i++ {
		fired = p.Observe(uint64(i*line), fired)
	}
	p.Reset()
	if p.Issued != 0 {
		t.Fatal("Issued not cleared by Reset")
	}
	// After reset the next observation allocates fresh and must not fire.
	if out := p.Observe(uint64(8*line), nil); len(out) != 0 {
		t.Fatalf("fired right after reset: %v", out)
	}
}

// Property: proposals are always line-aligned and never equal to the
// observed line.
func TestPropertyProposalsLineAligned(t *testing.T) {
	f := func(raw []uint16) bool {
		p := NewStride(StrideConfig{LineSize: line, TrainThreshold: 1, MaxDistance: 4, Ramp: true})
		for _, r := range raw {
			a := uint64(r) * line
			for _, c := range p.Observe(a, nil) {
				if c%line != 0 || c == a {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
