// Package prefetch models hardware data prefetchers.
//
// The paper's two RISC-V devices differ in exactly this component (§3.1):
// the Allwinner D1's C906 core prefetches "forward and backward consecutive
// and stride-based with stride less or equal 16 cache lines", while the
// JH7100's U74 cores prefetch "forward and backward stride-based with large
// strides and automatically increased prefetch distance". Both behaviours —
// and the Gaussian-blur result where prefetching *hurts* the bandwidth-starved
// VisionFive board (§4.3) — fall out of the Stride model here combined with
// the DRAM channel occupancy model in internal/dram.
//
// Prefetchers are trained on demand-access line addresses and emit candidate
// line addresses; the memory hierarchy decides whether a candidate is already
// resident or in flight and charges channel time for real fills.
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//simlint:deterministic
package prefetch

import (
	"math/bits"

	"riscvmem/internal/units"
)

// Prefetcher observes the demand-access stream of one core and proposes
// lines to fetch ahead of it.
type Prefetcher interface {
	// Observe records a demand access to the given line-aligned byte address
	// and appends any prefetch candidates (line-aligned byte addresses) to
	// out, returning the extended slice. The lineSize is fixed at
	// construction.
	Observe(lineAddr uint64, out []uint64) []uint64
	// Reset clears all training state.
	Reset()
}

// None is the absent prefetcher (e.g. for ablation benchmarks).
type None struct{}

// Observe implements Prefetcher; it never proposes anything.
func (None) Observe(_ uint64, out []uint64) []uint64 { return out }

// Reset implements Prefetcher.
func (None) Reset() {}

// NextLine prefetches the next Degree consecutive lines on every observed
// access — the classic instruction-side scheme (the C906 prefetches "the next
// consecutive cache line" for instructions). Kept mostly for ablations on the
// data side.
type NextLine struct {
	LineSize int64
	Degree   int // how many lines ahead; 0 behaves as 1
	last     uint64
	warm     bool
}

// NewNextLine returns a next-line prefetcher for the given line size.
func NewNextLine(lineSize int64, degree int) *NextLine {
	if degree < 1 {
		degree = 1
	}
	return &NextLine{LineSize: lineSize, Degree: degree}
}

// Observe implements Prefetcher.
func (p *NextLine) Observe(lineAddr uint64, out []uint64) []uint64 {
	// Only fire when the stream moves to a new line; repeated accesses to
	// the same line must not multiply traffic.
	if p.warm && p.last == lineAddr {
		return out
	}
	p.warm = true
	p.last = lineAddr
	for i := 1; i <= p.Degree; i++ {
		out = append(out, lineAddr+uint64(i)*uint64(p.LineSize))
	}
	return out
}

// Reset implements Prefetcher.
func (p *NextLine) Reset() { p.warm = false; p.last = 0 }

// StrideConfig parameterizes a Stride prefetcher.
type StrideConfig struct {
	LineSize int64
	// Streams is the number of concurrent access streams tracked (the table
	// size). Typical hardware tracks 4–16.
	Streams int
	// MaxStrideLines bounds the detectable stride in lines; 0 means
	// unbounded ("large strides" on the U74). The C906 uses 16.
	MaxStrideLines int64
	// MatchWindowLines is how close (in lines) an access must be to a
	// tracked stream's predicted position to be considered part of it.
	MatchWindowLines int64
	// TrainThreshold is the number of consecutive same-stride observations
	// before prefetches are issued.
	TrainThreshold int
	// InitDistance and MaxDistance bound the prefetch look-ahead, in strides.
	// When Ramp is true, the distance doubles on each confident observation
	// until MaxDistance ("automatically increased prefetch distance", U74);
	// otherwise it stays at InitDistance.
	InitDistance int
	MaxDistance  int
	Ramp         bool
}

// withDefaults fills zero fields with reasonable hardware-ish values.
func (c StrideConfig) withDefaults() StrideConfig {
	if c.Streams == 0 {
		c.Streams = 8
	}
	if c.MatchWindowLines == 0 {
		c.MatchWindowLines = 512
	}
	if c.TrainThreshold == 0 {
		c.TrainThreshold = 2
	}
	if c.InitDistance == 0 {
		c.InitDistance = 1
	}
	if c.MaxDistance == 0 {
		c.MaxDistance = c.InitDistance
	}
	return c
}

type stream struct {
	lastLine int64 // line index (addr / lineSize)
	stride   int64 // in lines; 0 = untrained
	conf     int
	distance int
	lastUse  uint64
	valid    bool
}

// Stride is a multi-stream stride-directed prefetcher supporting forward and
// backward strides, bounded or unbounded stride magnitude, and optional
// distance ramping.
type Stride struct {
	cfg StrideConfig
	// lineShift is log2(LineSize) when it is a power of two (the common
	// case: divide/multiply by shifting), else 0 with pow2Line false.
	lineShift uint
	pow2Line  bool
	table     []stream
	// validMask mirrors the streams' valid bits so the match scan skips
	// empty slots without touching their memory (tables are ≤64 streams).
	validMask uint64
	clock     uint64
	// Issued counts candidate lines proposed since construction/Reset.
	Issued uint64
}

// NewStride returns a stride prefetcher with the given configuration.
func NewStride(cfg StrideConfig) *Stride {
	cfg = cfg.withDefaults()
	p := &Stride{cfg: cfg, table: make([]stream, cfg.Streams)}
	if units.IsPow2(cfg.LineSize) {
		p.lineShift, p.pow2Line = units.Log2(cfg.LineSize), true
	}
	return p
}

// Observe implements Prefetcher.
func (p *Stride) Observe(lineAddr uint64, out []uint64) []uint64 {
	var line int64
	if p.pow2Line {
		line = int64(lineAddr >> p.lineShift)
	} else {
		line = int64(lineAddr / uint64(p.cfg.LineSize))
	}
	p.clock++

	// Find the tracked stream closest to this access. Tables of ≤64 streams
	// (all presets) scan only the live slots via the validity mask; the
	// ascending bit order preserves the lowest-index tie-break.
	best, bestDist := -1, p.cfg.MatchWindowLines+1
	if len(p.table) <= 64 {
		for live := p.validMask; live != 0; live &= live - 1 {
			i := bits.TrailingZeros64(live)
			s := &p.table[i]
			d := line - s.lastLine
			if d < 0 {
				d = -d
			}
			if d <= p.cfg.MatchWindowLines && d < bestDist {
				best, bestDist = i, d
			}
		}
	} else {
		for i := range p.table {
			s := &p.table[i]
			if !s.valid {
				continue
			}
			d := line - s.lastLine
			if d < 0 {
				d = -d
			}
			if d <= p.cfg.MatchWindowLines && d < bestDist {
				best, bestDist = i, d
			}
		}
	}

	if best < 0 {
		// Allocate a new stream over the least recently used slot.
		victim := 0
		for i := range p.table {
			if !p.table[i].valid {
				victim = i
				break
			}
			if p.table[i].lastUse < p.table[victim].lastUse {
				victim = i
			}
		}
		p.table[victim] = stream{lastLine: line, distance: p.cfg.InitDistance, lastUse: p.clock, valid: true}
		p.validMask |= 1 << uint(victim)
		return out
	}

	s := &p.table[best]
	s.lastUse = p.clock
	delta := line - s.lastLine
	if delta == 0 {
		return out // same line; nothing learned
	}
	s.lastLine = line

	tooBig := p.cfg.MaxStrideLines > 0 && (delta > p.cfg.MaxStrideLines || delta < -p.cfg.MaxStrideLines)
	if tooBig || delta != s.stride {
		// New or rejected stride: retrain.
		if tooBig {
			s.stride, s.conf = 0, 0
		} else {
			s.stride, s.conf = delta, 1
		}
		s.distance = p.cfg.InitDistance
		return out
	}

	// Confirmed stride.
	s.conf++
	if s.conf < p.cfg.TrainThreshold {
		return out
	}
	if p.cfg.Ramp && s.distance < p.cfg.MaxDistance {
		s.distance *= 2
		if s.distance > p.cfg.MaxDistance {
			s.distance = p.cfg.MaxDistance
		}
	}
	// Propose the window [line+stride, line+stride*distance]. The hierarchy
	// drops lines that are already resident or in flight, so steady state
	// issues ~one new line per observation.
	for k := 1; k <= s.distance; k++ {
		next := line + s.stride*int64(k)
		if next < 0 {
			break
		}
		if p.pow2Line {
			out = append(out, uint64(next)<<p.lineShift)
		} else {
			out = append(out, uint64(next)*uint64(p.cfg.LineSize))
		}
		p.Issued++
	}
	return out
}

// Reset implements Prefetcher.
func (p *Stride) Reset() {
	for i := range p.table {
		p.table[i] = stream{}
	}
	p.validMask = 0
	p.clock = 0
	p.Issued = 0
}
