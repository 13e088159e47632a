// Package metrics implements the paper's §3.3 performance metrics: speedup
// over the naive implementation and the relative memory-bandwidth
// utilization that makes low-power and server devices comparable.
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//
//simlint:deterministic
package metrics

import "riscvmem/internal/units"

// Speedup returns how many times faster opt is than base (both in seconds).
// Zero or negative inputs yield 0.
func Speedup(baseSeconds, optSeconds float64) float64 {
	if baseSeconds <= 0 || optSeconds <= 0 {
		return 0
	}
	return baseSeconds / optSeconds
}

// Utilization is the §3.3 metric: the ratio of the bytes that *must* cross
// the DRAM↔CPU boundary to the bytes the STREAM-measured bandwidth could
// have moved in the same time. The result is dimensionless in [0,1]; values
// near one mean the algorithm spends its whole runtime moving mandatory
// traffic at full achievable bandwidth.
func Utilization(mandatoryBytes int64, seconds float64, streamBW units.BytesPerSec) float64 {
	if mandatoryBytes <= 0 || seconds <= 0 || streamBW <= 0 {
		return 0
	}
	u := float64(mandatoryBytes) / seconds / float64(streamBW)
	if u > 1 {
		u = 1 // the metric is defined on [0,1]; overshoot means the
		//       denominator (achieved STREAM) underestimates the ceiling
	}
	return u
}
