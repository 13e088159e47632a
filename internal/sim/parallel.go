package sim

// Schedule selects how ParallelFor distributes iterations, mirroring
// OpenMP's schedule(static) and schedule(dynamic) clauses — the distinction
// behind the paper's "Dynamic" transposition variant.
type Schedule int

const (
	// Static splits the iteration space into one contiguous range per core.
	Static Schedule = iota
	// Dynamic hands out chunks of the given size on demand; cores that
	// finish early (short rows of the triangular matrix) grab more work.
	Dynamic
)

// dynGrabCycles is the simulated cost of one dynamic-schedule work grab
// (atomic increment plus contention); charged per chunk.
const dynGrabCycles = 40

// ParallelFor runs body for every i in [0,n) across `cores` simulated cores
// under the given schedule. chunk applies to Dynamic (values < 1 become 1).
// It returns the region result (wall time = slowest core).
func (m *Machine) ParallelFor(cores, n int, sched Schedule, chunk int, body func(c *Core, i int)) Result {
	return m.ParallelRange(cores, n, sched, chunk, func(c *Core, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(c, i)
		}
	})
}

// ParallelRange is ParallelFor at range granularity: body receives each
// contiguous index range [lo,hi) its core is scheduled (the whole static
// share, or one dynamic chunk per grab). Scheduling, grab costs and event
// ordering are identical to ParallelFor; the range form exists so bodies
// can charge their memory traffic through the bulk range APIs
// (Core.TouchRange / TouchSpans) instead of element by element. As in
// Machine.Run, bodies must not block on one another.
func (m *Machine) ParallelRange(cores, n int, sched Schedule, chunk int, body func(c *Core, lo, hi int)) Result {
	if cores > m.spec.Cores {
		cores = m.spec.Cores
	}
	if cores < 1 {
		cores = 1
	}
	if chunk < 1 {
		chunk = 1
	}
	switch sched {
	case Dynamic:
		next := 0 // the shared chunk counter
		return m.Run(cores, func(c *Core) {
			for {
				// The grab is a shared event: order it like any other, so
				// chunks are assigned in simulated-time order.
				if c.e != nil {
					c.e.Enter(c.id, c.now)
				}
				lo := next
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				next = hi
				c.now += dynGrabCycles
				if lo >= n {
					return
				}
				body(c, lo, hi)
			}
		})
	default: // Static
		return m.Run(cores, func(c *Core) {
			body(c, c.id*n/cores, (c.id+1)*n/cores)
		})
	}
}
