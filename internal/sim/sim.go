// Package sim executes kernels against a simulated machine.
//
// A Machine owns a device Spec (internal/machine), its memory hierarchy
// (internal/hier), a simulated physical address space, and a monotonically
// advancing global clock. Kernels are ordinary Go functions that read and
// write simulated arrays (F64/F32); each element access is charged to the
// executing Core's clock through the hierarchy's timing path, while the data
// itself lives in ordinary Go slices so results stay functionally correct
// and testable.
//
// Parallel regions run each simulated core's body as a coroutine under a
// sequential scheduler (engine.go) that resumes one core at a time in
// (simulated time, core ID) order of their shared-state events, so every run
// is bit-for-bit deterministic and independent of host scheduling.
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//simlint:deterministic
package sim

import (
	"fmt"

	"riscvmem/internal/hier"
	"riscvmem/internal/machine"
	"riscvmem/internal/units"
)

const pageSize = 4096

// Machine is a simulated device instance.
type Machine struct {
	spec machine.Spec
	h    *hier.Hierarchy
	// clock is the global epoch: each Run starts its cores here and pushes
	// it to the region's completion time, so DRAM queue state and cache
	// contents stay consistent across successive regions of one kernel.
	clock float64
	next  uint64 // bump allocator cursor
	used  int64  // bytes allocated

	// Hot-path constants hoisted out of the per-access loop.
	lineMask    uint64  // LineSize-1
	l1HitCycles float64 // hierarchy L1 hit cost
	missOverlap float64 // exposed fraction of miss latency

	// identity memoizes spec.Identity() — a pure (and not free: it boxes a
	// ~30-field struct) function of the immutable spec, recomputed on every
	// pool release before this cache existed.
	identity any
}

// New instantiates a machine from a validated spec.
func New(spec machine.Spec) (*Machine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Machine{
		spec: spec, h: spec.NewHierarchy(), next: pageSize,
		lineMask:    uint64(spec.Mem.LineSize - 1),
		l1HitCycles: spec.Mem.L1HitCycles,
		missOverlap: spec.Mem.MissOverlap,
		identity:    spec.Identity(),
	}, nil
}

// MustNew is New but panics on invalid specs (the built-in presets are
// covered by tests).
func MustNew(spec machine.Spec) *Machine {
	m, err := New(spec)
	if err != nil {
		panic(err)
	}
	return m
}

// Spec returns the device description.
func (m *Machine) Spec() machine.Spec { return m.spec }

// Identity returns the memoized machine.Spec.Identity() of the immutable
// spec — the pooling key the batch Runner (internal/run) uses on every
// acquire/release.
func (m *Machine) Identity() any { return m.identity }

// Reset restores the machine to its power-on state: the global clock returns
// to zero, the allocator rewinds, and every structural component of the
// memory hierarchy (caches, TLBs, prefetchers, MSHRs, DRAM queues) and all
// statistics reset. A reset machine is bit-for-bit indistinguishable from a
// freshly constructed one — the property the pooled Runner (internal/run)
// relies on to reuse machines across jobs without re-allocation.
//
// Arrays allocated before the reset are invalidated: their simulated
// addresses will be handed out again. Allocate anew after Reset.
func (m *Machine) Reset() {
	m.clock = 0
	m.next = pageSize
	m.used = 0
	m.h.Reset()
}

// Hier exposes the memory hierarchy (stats inspection, ablations).
func (m *Machine) Hier() *hier.Hierarchy { return m.h }

// Now returns the machine's global clock in cycles.
func (m *Machine) Now() float64 { return m.clock }

// Allocated returns total simulated bytes allocated so far.
func (m *Machine) Allocated() int64 { return m.used }

// alloc reserves n bytes of simulated address space, page-aligned, and
// errors when the device's RAM would be exceeded.
func (m *Machine) alloc(n int64) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("sim: allocation of %d bytes", n)
	}
	if !m.spec.Fits(m.used + n) {
		return 0, fmt.Errorf("sim: %s does not fit in %s RAM of %s",
			units.Bytes(m.used+n), units.Bytes(m.spec.RAMBytes), m.spec.Name)
	}
	base := m.next
	m.next += (uint64(n) + pageSize - 1) / pageSize * pageSize
	m.used += n
	return base, nil
}

// AllocRaw reserves n bytes of simulated address space (page-aligned) for
// callers that keep their own backing store, such as the RISC-V emulator's
// flat memory. It errors when the device's RAM would be exceeded.
func (m *Machine) AllocRaw(n int64) (uint64, error) { return m.alloc(n) }

// Result reports one executed region.
type Result struct {
	Cycles  float64   // wall time of the region in core cycles
	PerCore []float64 // per-core busy time
}

// Seconds converts the region's wall time at the machine's clock rate.
func (r Result) Seconds(spec machine.Spec) float64 {
	return units.Seconds(r.Cycles, spec.FreqGHz)
}

// Run executes body once per simulated core (cores index 0..n-1) and returns
// the region wall time: the maximum core completion time minus the region
// start. n must not exceed the device's core count.
//
// With n > 1 the bodies are coroutines on the caller's goroutine, one
// running at a time and switched only at shared events (L1 misses, dynamic
// work grabs). A body must therefore not block on another body of the
// region (a channel, a WaitGroup): that never had a deterministic outcome
// and now deadlocks. A panic in any body stops the others and propagates to
// the caller, leaving the machine mid-region: Reset it or drop it.
func (m *Machine) Run(n int, body func(c *Core)) Result {
	if n < 1 || n > m.spec.Cores {
		panic(fmt.Sprintf("sim: %d cores requested on %d-core %s", n, m.spec.Cores, m.spec.Name))
	}
	start := m.clock
	cores := make([]*Core, n)
	var e *engine
	if n > 1 {
		e = newEngine(n, start)
	}
	for i := range cores {
		cores[i] = &Core{
			id: i, m: m, h: m.h, e: e, now: start,
			lineMask:    m.lineMask,
			issueScalar: m.l1HitCycles,
			autoVec:     m.spec.AutoVecBytes > 0,
		}
	}
	if n == 1 {
		body(cores[0])
	} else {
		e.run(cores, body)
	}
	res := Result{PerCore: make([]float64, n)}
	end := start
	for i, c := range cores {
		res.PerCore[i] = c.now - start
		if c.now > end {
			end = c.now
		}
	}
	res.Cycles = end - start
	m.clock = end
	return res
}

// RunSeq executes body on core 0 alone.
func (m *Machine) RunSeq(body func(c *Core)) Result {
	return m.Run(1, body)
}
