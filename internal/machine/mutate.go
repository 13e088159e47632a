// Spec mutation helpers: the building blocks of device-parameter ablations.
//
// Each helper deep-copies the spec and changes exactly one parameter, so a
// sweep (internal/sweep) can compose them freely without aliasing the base
// preset. None of them touch Name — Spec.Identity distinguishes the mutants
// from their base by the changed parameters themselves — but sweeps rename
// their cells anyway for readable reporting.
package machine

import (
	"riscvmem/internal/cache"
	"riscvmem/internal/hier"
	"riscvmem/internal/units"
)

// Clone returns a deep copy of the spec: the optional pointer-typed memory
// components (L2, L3, second-level TLB, prefetcher) are copied,
// so mutating the clone never aliases the original.
func (s Spec) Clone() Spec {
	if s.Mem.L2 != nil {
		l2 := *s.Mem.L2
		s.Mem.L2 = &l2
	}
	if s.Mem.L3 != nil {
		l3 := *s.Mem.L3
		s.Mem.L3 = &l3
	}
	if s.Mem.JTLB != nil {
		j := *s.Mem.JTLB
		s.Mem.JTLB = &j
	}
	if s.Mem.Prefetch != nil {
		p := *s.Mem.Prefetch
		s.Mem.Prefetch = &p
	}
	return s
}

// Renamed returns a copy with the given Name (the other parameters, and so
// the simulated behaviour, are unchanged).
func (s Spec) Renamed(name string) Spec {
	s = s.Clone()
	s.Name = name
	return s
}

// l2ways picks an associativity for an L2 of the given size: the level's
// current ways when they still divide the capacity into a power-of-two set
// count, otherwise the largest power-of-two associativity that does.
func l2ways(current int, size, lineSize int64) int {
	valid := func(w int) bool {
		return w > 0 && size%(int64(w)*lineSize) == 0 && units.IsPow2(size/(int64(w)*lineSize))
	}
	if valid(current) {
		return current
	}
	for w := 32; w >= 1; w /= 2 {
		if valid(w) {
			return w
		}
	}
	return 1
}

// WithL2 returns a copy whose L2 has the given capacity. A device that
// already has an L2 keeps its policy and latency and changes capacity only
// (associativity is re-fit when the old way count no longer divides the new
// size evenly). A device without one — the Mango Pi's defining gap — gains a
// shared LRU L2 with the VisionFive's 22-cycle latency, the "what if the D1
// had an L2?" ablation.
func (s Spec) WithL2(size int64) Spec {
	s = s.Clone()
	if s.Mem.L2 == nil {
		s.Mem.L2 = &hier.Level{
			Cache: cache.Config{Name: "L2", Size: size, Ways: 8,
				LineSize: s.Mem.LineSize, Policy: cache.LRU},
			HitCycles: 22, Shared: true,
		}
	}
	s.Mem.L2.Cache.Size = size
	s.Mem.L2.Cache.Ways = l2ways(s.Mem.L2.Cache.Ways, size, s.Mem.LineSize)
	return s
}

// WithoutL2 returns a copy with no L2 — and therefore no L3, since an L3
// without an L2 is structurally invalid.
func (s Spec) WithoutL2() Spec {
	s = s.Clone()
	s.Mem.L2, s.Mem.L3 = nil, nil
	return s
}

// WithMaxInflight returns a copy whose per-core MSHR count (concurrent
// outstanding fills) is n — the knob behind the paper's MSHR-bounded
// streaming-bandwidth observation.
func (s Spec) WithMaxInflight(n int) Spec {
	s = s.Clone()
	s.Mem.MaxInflight = n
	return s
}

// WithMissOverlap returns a copy with the given miss-overlap factor (1.0 =
// fully stalling in-order core, smaller = more out-of-order miss overlap).
func (s Spec) WithMissOverlap(f float64) Spec {
	s = s.Clone()
	s.Mem.MissOverlap = f
	return s
}

// WithDRAMChannels returns a copy with n independent DRAM channels.
func (s Spec) WithDRAMChannels(n int) Spec {
	s = s.Clone()
	s.Mem.DRAM.Channels = n
	return s
}

// WithDRAMLatency returns a copy with the given fixed DRAM access latency in
// core cycles.
func (s Spec) WithDRAMLatency(cycles float64) Spec {
	s = s.Clone()
	s.Mem.DRAM.LatencyCycles = cycles
	return s
}

// WithL1Ways returns a copy whose L1 associativity is n. The caller is
// responsible for picking an n that keeps the set count a power of two
// (Validate rejects others).
func (s Spec) WithL1Ways(n int) Spec {
	s = s.Clone()
	s.Mem.L1.Ways = n
	return s
}

// WithPolicy returns a copy where every cache level uses the given
// replacement policy.
func (s Spec) WithPolicy(p cache.Policy) Spec {
	s = s.Clone()
	s.Mem.L1.Policy = p
	if s.Mem.L2 != nil {
		s.Mem.L2.Cache.Policy = p
	}
	if s.Mem.L3 != nil {
		s.Mem.L3.Cache.Policy = p
	}
	return s
}

// WithPrefetchDistance returns a copy whose stride prefetcher looks ahead at
// most max strides (InitDistance is clamped down to it). A spec without a
// prefetcher is returned unchanged apart from the deep copy.
func (s Spec) WithPrefetchDistance(max int) Spec {
	s = s.Clone()
	if s.Mem.Prefetch == nil {
		return s
	}
	s.Mem.Prefetch.MaxDistance = max
	if s.Mem.Prefetch.InitDistance > max {
		s.Mem.Prefetch.InitDistance = max
	}
	return s
}

// WithPrefetchRamp returns a copy whose stride prefetcher does (or does not)
// automatically ramp its look-ahead distance — the VisionFive behaviour that
// Fig. 6 shows crowding out demand traffic on a starved memory channel. Like
// WithPrefetchDistance it leaves a spec without a prefetcher unchanged.
func (s Spec) WithPrefetchRamp(ramp bool) Spec {
	s = s.Clone()
	if s.Mem.Prefetch == nil {
		return s
	}
	s.Mem.Prefetch.Ramp = ramp
	return s
}

// WithoutPrefetcher returns a copy with data prefetching disabled entirely.
func (s Spec) WithoutPrefetcher() Spec {
	s = s.Clone()
	s.Mem.Prefetch = nil
	return s
}
