package run

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"riscvmem/internal/sim"
)

// TestRegistryConcurrency hammers the process-wide workload registry —
// Register/Lookup/Names — from many goroutines at once, mixed with the
// built-in kernel lookups (Kernels, ParseWorkloadSpec, NewWorkload) that
// concurrent simd request handlers perform. Run under -race (CI does); the
// assertions only check the registry stays internally consistent. Every run
// registers names of its own, because the registry is append-only and
// outlives the test (go test -count=N runs it N times in one process).
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

				if len(Kernels()) != 3 {
					t.Errorf("Kernels() = %v, want the three built-in kernels", Kernels())
					return
				}
				if _, err := NewWorkload(MustParseWorkloadSpec(name)); err != nil {
					t.Errorf("NewWorkload(%s): %v", name, err)
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
