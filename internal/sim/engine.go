package sim

import (
	"iter"
	"math"
)

// engine orders the shared-state events of a multi-core region (misses past
// L1 into shared caches and DRAM, dynamic-schedule work grabs) by simulated
// time, with core ID as the tie-breaker. It is a sequential coroutine
// scheduler: every core body runs under iter.Pull, exactly one runs at a
// time, and every other live core is parked at a shared event whose time is
// exact (a core that has not started yet counts as parked at the region
// start). The scheduler always resumes the parked core with the smallest
// (time, ID), so events are granted in that total order by construction —
// no locks, and nothing depends on how the host schedules goroutines.
type engine struct {
	// at[i] is the time of core i's pending event while it is parked, and
	// +Inf once its body has returned.
	at    []float64
	yield []func(struct{}) bool
	// (horizonT, horizonID) is the earliest (time, ID) among the parked
	// cores. It cannot change while one core runs, so that core passes every
	// event ordered before it without a switch.
	horizonT  float64
	horizonID int
}

// regionStopped unwinds a parked core body whose region is being abandoned
// because another body panicked.
type regionStopped struct{}

// Enter returns once the event of core id at time t is the earliest pending
// one; the caller then owns the shared state until its next Enter. It
// implements hier.Order.
func (e *engine) Enter(id int, t float64) {
	if t < e.horizonT || (t == e.horizonT && id < e.horizonID) {
		return
	}
	e.at[id] = t
	if !e.yield[id](struct{}{}) {
		panic(regionStopped{})
	}
}

// run executes body once per core, interleaved in (time, core ID) event
// order, and returns when every body has. A panic in one body stops the
// other coroutines and reaches the caller on its own goroutine.
func (e *engine) run(cores []*Core, body func(c *Core)) {
	next := make([]func() (struct{}, bool), len(cores))
	for i, c := range cores {
		var stop func()
		next[i], stop = iter.Pull(func(yield func(struct{}) bool) {
			e.yield[c.id] = yield
			defer func() {
				// regionStopped ends here: the panic that stopped the region
				// is already on its way to the caller. Anything else is the
				// body's own and goes on to iter.Pull, which hands it to next.
				if p := recover(); p != nil && p != (regionStopped{}) {
					panic(p)
				}
			}()
			body(c)
		})
		defer stop()
	}
	for {
		// One pass finds the earliest parked core and, for the horizon, the
		// runner-up; strict comparisons leave ties with the smaller ID.
		id, t := -1, math.Inf(1)
		e.horizonT, e.horizonID = t, -1
		for j, tj := range e.at {
			if tj < t {
				e.horizonT, e.horizonID = t, id
				id, t = j, tj
			} else if tj < e.horizonT {
				e.horizonT, e.horizonID = tj, j
			}
		}
		if id < 0 {
			return
		}
		if _, parked := next[id](); !parked {
			e.at[id] = math.Inf(1)
		}
	}
}

func newEngine(n int, start float64) *engine {
	e := &engine{at: make([]float64, n), yield: make([]func(struct{}) bool, n)}
	for i := range e.at {
		e.at[i] = start
	}
	return e
}
