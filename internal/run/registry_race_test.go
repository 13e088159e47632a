package run

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"riscvmem/internal/sim"
)

// TestRegistryConcurrency hammers the process-wide registries — workload
// Register/Lookup/Names and spec-factory RegisterSpecFactory/Kernels/
// ParseWorkloadSpec/NewWorkload — from many goroutines at once, the access
// pattern of concurrent simd request handlers. Run under -race (CI does);
// the assertions only check the registries stay internally consistent.
// Every run registers names of its own, because the registries are
// append-only and outlive the test (go test -count=N runs it N times in one
// process).
func TestRegistryConcurrency(t *testing.T) {
	const (
		goroutines = 8
		iters      = 200
	)
	run := registryRuns.Add(1)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("race-wl-%d-%d-%d", run, g, i)
				w := NewFunc(name, func(ctx context.Context, m *sim.Machine) (Result, error) {
					return Result{}, nil
				})
				if err := Register(w); err != nil {
					t.Errorf("Register(%s): %v", name, err)
					return
				}
				if got, err := Lookup(name); err != nil || got.Name() != name {
					t.Errorf("Lookup(%s): %v, %v", name, got, err)
					return
				}
				_ = Names()

				kernel := fmt.Sprintf("racekernel%dx%dx%d", run, g, i)
				err := RegisterSpecFactory(KernelInfo{
					Kernel: kernel, Summary: "race test", Params: "none",
				}, func(spec WorkloadSpec) (Workload, error) { return w, nil })
				if err != nil {
					t.Errorf("RegisterSpecFactory(%s): %v", kernel, err)
					return
				}
				_ = Kernels()
				if _, err := ParseWorkloadSpec(kernel); err != nil {
					t.Errorf("ParseWorkloadSpec(%s): %v", kernel, err)
					return
				}
				if _, err := NewWorkload(WorkloadSpec{Kernel: kernel}); err != nil {
					t.Errorf("NewWorkload(%s): %v", kernel, err)
					return
				}
				// Mix in the built-in lookups handlers actually perform.
				if _, err := NewWorkload(MustParseWorkloadSpec("stream/TRIAD")); err != nil {
					t.Errorf("NewWorkload(stream/TRIAD): %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// registryRuns numbers the runs of TestRegistryConcurrency in this process.
var registryRuns atomic.Int64
