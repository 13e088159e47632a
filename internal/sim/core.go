package sim

import "riscvmem/internal/hier"

// Core is one simulated hardware thread inside a Run region. All methods
// must be called only from that core's body. The bodies of a multi-core
// region are coroutines resumed one at a time (see Machine.Run): a body must
// not block waiting for another body of its region.
type Core struct {
	id  int
	m   *Machine
	h   *hier.Hierarchy // == m.h, cached to skip a chase per access
	e   *engine         // nil in single-core regions
	now float64

	// Hot-path constants copied from the machine at region start.
	lineMask    uint64
	issueScalar float64 // L1 hit cost without vectorization
	autoVec     bool    // device auto-vectorizes (spec.AutoVecBytes > 0)

	// Vec marks the current loop as compiler-vectorized on devices whose
	// toolchain auto-vectorizes (machine.Spec.AutoVecBytes > 0): element
	// accesses and Flops are then costed at SIMD throughput. Kernels set it
	// around the loops the paper says GCC vectorized; it is a no-op on the
	// RISC-V presets, whose toolchain emitted scalar code.
	Vec bool

	// L0 line filter: the line touched by the previous access short-cuts
	// the full TLB+L1 path, modelling the line-fill/store buffer that makes
	// consecutive same-line accesses effectively free of lookup work.
	// lastKey packs the line address with bit0 = valid and bit1 = dirty
	// (line addresses are line-aligned, so the low bits are free), making
	// the filter a single masked compare.
	lastKey uint64

	// Stats
	Loads  uint64
	Stores uint64
}

// ID returns the core index within its region (0-based).
func (c *Core) ID() int { return c.id }

// lanes returns the SIMD element multiplier for elemBytes-wide elements
// under the current vectorization state.
func (c *Core) lanes(elemBytes int) float64 {
	if !c.Vec || c.m.spec.AutoVecBytes == 0 {
		return 1
	}
	l := float64(c.m.spec.AutoVecBytes / elemBytes)
	if l < 1 {
		return 1
	}
	return l
}

// issueCost returns the per-element L1-hit issue cost, skipping the float
// division on the scalar path (x/1.0 == x, so the value is unchanged).
func (c *Core) issueCost(elemBytes int) float64 {
	if c.Vec && c.autoVec {
		return c.issueScalar / c.lanes(elemBytes)
	}
	return c.issueScalar
}

// touch charges one element access of elemBytes at addr.
func (c *Core) touch(addr uint64, elemBytes int, write bool) {
	line := addr &^ c.lineMask
	// Same-line fast path. A write to a line last seen clean still needs
	// the full path to set the dirty bit (lastKey compares dirty too).
	if write {
		c.Stores++
		if c.lastKey == line|3 {
			c.now += c.issueCost(elemBytes)
			return
		}
	} else {
		c.Loads++
		if c.lastKey&^2 == line|1 {
			c.now += c.issueCost(elemBytes)
			return
		}
	}
	c.access(addr, line, write, c.issueCost(elemBytes))
}

// access is the full per-line path shared by Touch and the range APIs: the
// fused TLB + L1 lookup and, on a miss, the shared path. Single-core
// regions resolve in one hierarchy call; multi-core regions split the
// access so only the shared half is serialized by the engine.
func (c *Core) access(addr, line uint64, write bool, issue float64) {
	h := c.h
	if c.e == nil {
		c.now = h.Access(c.id, c.now, addr, write, issue)
	} else {
		tlbCycles, res := h.AccessL1(c.id, addr, write)
		c.now += tlbCycles
		if res.Hit {
			c.now += issue
		} else {
			// Miss: order globally, then walk the shared path, which this
			// core owns until its next Enter. The exposed latency is
			// scaled by the device's miss-overlap factor (out-of-order
			// cores hide part of it behind independent work).
			c.e.Enter(c.id, c.now)
			done := h.MissRest(c.id, c.now, addr, res)
			c.now += float64((done - c.now) * c.m.missOverlap) // rounded: no fused multiply-add (DESIGN §2)
		}
	}
	key := line | 1
	if write {
		key |= 2
	}
	c.lastKey = key
}

// Touch charges one raw memory access of elemBytes at the simulated address
// addr. It is the building block for substrates (like the RISC-V emulator)
// that manage their own data layout instead of using F64/F32 arrays.
func (c *Core) Touch(addr uint64, elemBytes int, write bool) {
	c.touch(addr, elemBytes, write)
}

// Flops charges n floating-point operations at the device's scalar rate, or
// SIMD rate inside a vectorized region (8-byte lanes assumed for Flops; use
// Flops32 for single precision).
func (c *Core) Flops(n float64) { c.now += c.FlopCycles(n) }

// IntOps charges n abstract integer/address/branch operations at the
// device's issue width (loop overhead, index arithmetic).
func (c *Core) IntOps(n float64) { c.now += c.IntCycles(n) }

// FlopCycles returns the cycle cost Flops(n) would charge under the current
// vectorization state, for precomputing TouchSpans post-charges.
func (c *Core) FlopCycles(n float64) float64 {
	return n / (c.m.spec.FlopsPerCycle * c.lanes(8))
}

// Flop32Cycles is FlopCycles for single precision.
func (c *Core) Flop32Cycles(n float64) float64 {
	return n / (c.m.spec.FlopsPerCycle * c.lanes(4))
}

// IntCycles returns the cycle cost IntOps(n) would charge.
func (c *Core) IntCycles(n float64) float64 {
	return n / float64(c.m.spec.IssueWidth)
}

// Cycles charges a raw cycle count (fixed-function costs).
func (c *Core) Cycles(n float64) { c.now += n }
