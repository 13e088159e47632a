// Package run is the composable workload/runner layer of the library.
//
// The paper's evaluation is a cross-product — three kernels × five variants
// × four devices — and the per-kernel entry points (stream.RunOn,
// transpose.RunOn, blur.RunOn) cannot express it without bespoke glue: three
// unrelated free functions, each needing a machine in power-on state.
// This package redesigns that surface around three ideas:
//
//   - Workload: anything that can execute on a *sim.Machine and report a
//     unified Result. The built-in kernels are adapted in workloads.go;
//     custom kernels implement the interface directly (or wrap a function
//     with NewFunc) and plug into every tool below.
//   - Registry: a process-wide name → Workload table (Register / Lookup /
//     Names) so third-party kernels are addressable exactly like the
//     built-ins.
//   - Runner: batch execution of []Job{Device, Workload} cross-products on
//     a pool of reusable machines (Machine.Reset instead of
//     re-construction), with host-goroutine parallelism, deterministic
//     result ordering, context cancellation, and progress callbacks.
//
// Simulated results are bit-identical whether a job runs serially on a
// fresh machine or batched on a pooled one — the oracle tests assert this
// over the full kernel×variant×device cross-product.
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//
//simlint:deterministic
package run

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"riscvmem/internal/machine"
	"riscvmem/internal/metrics"
	"riscvmem/internal/sim"
	"riscvmem/internal/units"
)

// Result is the unified outcome of one workload execution: simulated time,
// logical bandwidth, and the machine's per-level cache/TLB/DRAM counters.
// Every kernel — built-in or custom — reports through this one type.
type Result struct {
	// Workload and Device identify the run (filled by the Runner when the
	// workload leaves them empty).
	Workload string `json:"workload"`
	Device   string `json:"device"`
	// Cycles is the simulated wall time of the measured region in core
	// cycles; Seconds is the same at the device's clock rate.
	Cycles  float64 `json:"cycles"`
	Seconds float64 `json:"seconds"`
	// Bytes is the kernel's logical (mandatory) data movement — the
	// numerator of the paper's §3.3 utilization metric. Zero when the
	// workload has no natural byte count.
	Bytes int64 `json:"bytes"`
	// Bandwidth is the logical bandwidth achieved: for STREAM the
	// benchmark's best (scaled) figure, otherwise Bytes over Seconds.
	Bandwidth units.BytesPerSec `json:"bandwidth"`
	// Mem holds the machine's per-level memory-system counters for the run
	// (L1/L2/L3 hits and misses, TLB activity, DRAM traffic). Workloads
	// that leave it empty get it filled by the Runner from the machine's
	// counters after the run.
	Mem sim.Summary `json:"mem"`
}

// SpeedupOver returns how many times faster r is than base (the paper's
// §3.3 speedup metric); 0 when either time is unusable.
func (r Result) SpeedupOver(base Result) float64 {
	return metrics.Speedup(base.Seconds, r.Seconds)
}

// Workload is one executable kernel configuration. Run executes it on the
// given machine — which the caller provides in power-on state — and reports
// a unified Result. Implementations should honour ctx at least on entry;
// the simulated regions themselves are not interruptible.
type Workload interface {
	Name() string
	Run(ctx context.Context, m *sim.Machine) (Result, error)
}

// Keyed is the optional interface behind the Runner's result memoization.
//
// A workload that implements it declares: "my Result on a given device is a
// pure function of (device parameters, CacheKey())" — true for anything that
// only drives the deterministic simulator. The Runner then caches Results
// under (Spec.Identity, CacheKey) with singleflight deduplication, so
// identical cells across batches, overlapping sweeps, and suite re-runs
// simulate exactly once (bit-identical by construction: the cached value IS
// the first run's Result).
//
// The key must cover every configuration field that can change the outcome.
// The built-in stream/transpose/blur adapters derive theirs from the
// kernel's canonical spec-grammar encoding (see streamKey et al.): an
// order-stable rendered string whose exact values are pinned by golden
// tests, so the identity survives struct-field reordering and never
// stringifies pointers by address the way a fmt "%+v" key would. Custom
// workloads should likewise name every field explicitly. Workloads with
// side effects or host-dependent results must not implement Keyed.
type Keyed interface {
	CacheKey() string
}

// funcWorkload adapts a plain function into a Workload.
type funcWorkload struct {
	name string
	fn   func(context.Context, *sim.Machine) (Result, error)
}

func (w funcWorkload) Name() string { return w.name }

func (w funcWorkload) Run(ctx context.Context, m *sim.Machine) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return w.fn(ctx, m)
}

// NewFunc wraps a function as a named Workload — the quickest way to point
// a custom kernel at the Runner and the registry.
func NewFunc(name string, fn func(context.Context, *sim.Machine) (Result, error)) Workload {
	return funcWorkload{name: name, fn: fn}
}

// The process-wide workload registry.
var (
	regMu    sync.RWMutex
	registry = map[string]Workload{}
)

// Register adds a workload to the process-wide registry under its Name. It
// errors on a nil workload, an empty name, or a duplicate registration.
func Register(w Workload) error {
	if w == nil {
		return fmt.Errorf("run: register nil workload")
	}
	name := w.Name()
	if name == "" {
		return fmt.Errorf("run: register workload with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("run: workload %q already registered", name)
	}
	registry[name] = w
	return nil
}

// MustRegister is Register but panics on error; for package init blocks.
func MustRegister(w Workload) {
	if err := Register(w); err != nil {
		panic(err)
	}
}

// Lookup returns the registered workload with the given name.
func Lookup(name string) (Workload, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if w, ok := registry[name]; ok {
		return w, nil
	}
	return nil, fmt.Errorf("run: unknown workload %q", name)
}

// Names returns the registered workload names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Cross builds the device × workload cross-product as a job list, devices
// outermost — the paper's evaluation shape in one call.
func Cross(devices []machine.Spec, workloads []Workload) []Job {
	jobs := make([]Job, 0, len(devices)*len(workloads))
	for _, d := range devices {
		for _, w := range workloads {
			jobs = append(jobs, Job{Device: d, Workload: w})
		}
	}
	return jobs
}
