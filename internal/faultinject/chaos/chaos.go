// Package chaos provides the misbehaving workloads of the fault taxonomy —
// panic, stall, slow, transient failure — as ordinary run.Workload values.
// They need no injection seam: a Workload is already caller-supplied code,
// so the chaos suite just submits these through the same Runner/Service
// paths real workloads take and asserts the invariants hold (the batch
// survives a panic, a stall is abandoned at the deadline, a transient
// failure is never cached, nothing leaks).
package chaos

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"riscvmem/internal/run"
	"riscvmem/internal/sim"
)

// Panic returns a workload that panics mid-"simulation" — the stand-in for
// a workload bug that fires deep inside the simulator, leaving the machine
// in an arbitrary partial state.
func Panic(name string) run.Workload {
	return run.NewFunc(name, func(ctx context.Context, m *sim.Machine) (run.Result, error) {
		// Touch the machine first so the panic happens after state mutation,
		// like a real mid-run bug would.
		m.RunSeq(func(c *sim.Core) { c.Touch(0x1000, 8, false) })
		panic("chaos: injected workload panic")
	})
}

// Stall returns a workload that blocks until release is closed. With
// honorCtx it also returns on context cancellation (a slow-but-correct
// workload); without, it ignores its context entirely — the worst case the
// runner's deadline abandonment exists for. started receives one value when
// the workload begins executing (send is non-blocking; buffer accordingly).
func Stall(name string, started chan<- struct{}, release <-chan struct{}, honorCtx bool) run.Workload {
	return run.NewFunc(name, func(ctx context.Context, m *sim.Machine) (run.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		if honorCtx {
			select {
			case <-release:
				return run.Result{Seconds: 1}, nil
			case <-ctx.Done():
				return run.Result{}, ctx.Err()
			}
		}
		<-release // deaf to ctx: the runner must abandon, not wait
		return run.Result{Seconds: 1}, nil
	})
}

// Slow returns a workload that takes d of host wall time (honoring ctx)
// before succeeding — sustained load for queue, timeout and drain tests
// without a manual release channel.
func Slow(name string, d time.Duration) run.Workload {
	return run.NewFunc(name, func(ctx context.Context, m *sim.Machine) (run.Result, error) {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return run.Result{Seconds: d.Seconds()}, nil
		case <-ctx.Done():
			return run.Result{}, ctx.Err()
		}
	})
}

// Flaky is a Keyed workload that fails its first failures executions with a
// transient error and succeeds afterwards — the probe for the
// errors-are-never-cached invariant: run twice with the same key, the
// second attempt must re-execute and succeed.
type Flaky struct {
	name     string
	failures int32
	runs     atomic.Int32
}

// NewFlaky builds a Flaky workload.
func NewFlaky(name string, failures int) *Flaky {
	return &Flaky{name: name, failures: int32(failures)}
}

func (f *Flaky) Name() string { return f.name }

// CacheKey is deliberately stable across the failing and succeeding runs:
// if the runner cached the failure, the retry would be served the error.
func (f *Flaky) CacheKey() string { return "chaos/flaky/" + f.name }

// Runs reports how many times the workload actually executed.
func (f *Flaky) Runs() int { return int(f.runs.Load()) }

func (f *Flaky) Run(ctx context.Context, m *sim.Machine) (run.Result, error) {
	n := f.runs.Add(1)
	if n <= f.failures {
		return run.Result{}, fmt.Errorf("chaos: transient failure %d/%d", n, f.failures)
	}
	region := m.RunSeq(func(c *sim.Core) { c.Touch(0x1000, 8, false) })
	return run.Result{Seconds: region.Seconds(m.Spec()), Cycles: region.Cycles}, nil
}
