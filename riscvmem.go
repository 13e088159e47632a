// Package riscvmem is a reproduction of "Case Study for Running Memory-Bound
// Kernels on RISC-V CPUs" (Volokitin et al., PACT 2023) as a Go library.
//
// The paper benchmarks three memory-bound kernels — STREAM, in-place dense
// matrix transposition, and Gaussian blur — on two early RISC-V boards, a
// Raspberry Pi 4 and an Intel Xeon server, asking whether classic memory
// optimization techniques carry over to RISC-V silicon. Since the study is
// inseparable from its hardware, this library ships a deterministic,
// cycle-approximate simulator of all four devices (set-associative caches,
// TLBs, hardware prefetchers, multi-channel DRAM, in-order/out-of-order core
// cost models, an OpenMP-like parallel runtime) and runs functionally
// verified implementations of all the paper's kernel variants against it.
// See DESIGN.md for the full substitution argument.
//
// # Quick start
//
// Workloads are values; a Runner executes device × workload cross-products
// as batches on a pool of reusable simulated machines:
//
//	runner := riscvmem.NewRunner(riscvmem.RunnerOptions{})
//	res, err := runner.RunOne(context.Background(), riscvmem.VisionFive(),
//	    riscvmem.TransposeWorkload(riscvmem.TransposeConfig{
//	        N: 1024, Variant: riscvmem.TransposeBlocking}))
//	// res.Seconds, res.Bandwidth, res.Mem.L1MissRate(), ...
//
//	results, err := runner.Run(context.Background(), riscvmem.Jobs(
//	    riscvmem.Devices(),
//	    []riscvmem.Workload{
//	        riscvmem.BlurWorkload(riscvmem.BlurConfig{W: 640, H: 480, C: 3, F: 19,
//	            Variant: riscvmem.BlurMemory}),
//	    }))
//
// Custom kernels implement the Workload interface (or wrap a function with
// WorkloadFunc) and plug into the same Runner, registry and tools as the
// built-ins — see examples/customdevice. The figure-regeneration Suite
// (NewSuite) sits on top of the same machinery.
//
// Workloads are also addressable as pure data: a WorkloadSpec (kernel name
// + string parameters, grammar "stream:test=TRIAD,elems=65536") builds the
// same Workload values through registered kernel factories, and a Service
// (NewService / NewServiceHandler, served by cmd/simd) executes JSON
// BatchRequest/SweepRequest payloads on a shared memoized runner — the
// library as a daemon; see examples/client.
//
// Every run is bit-for-bit deterministic: times come from the simulated
// clock, never the host's, and batched results are bit-identical to serial
// ones regardless of Runner parallelism.
package riscvmem

import (
	"context"
	"net/http"

	"riscvmem/internal/core"
	"riscvmem/internal/kernels/blur"
	"riscvmem/internal/kernels/stream"
	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/machine"
	"riscvmem/internal/memostore"
	"riscvmem/internal/run"
	"riscvmem/internal/service"
	"riscvmem/internal/sim"
	"riscvmem/internal/sweep"
	"riscvmem/internal/units"
)

// Device describes a simulated machine (core counts, cache/TLB/prefetch/DRAM
// geometry, cost model). Build custom devices by modifying a preset.
type Device = machine.Spec

// The paper's four devices (§3.1).
var (
	MangoPiD1    = machine.MangoPiD1
	VisionFive   = machine.VisionFive
	RaspberryPi4 = machine.RaspberryPi4
	XeonServer   = machine.XeonServer
)

// Devices returns the paper's four machines in figure order.
func Devices() []Device { return machine.All() }

// DeviceByName looks a preset up by its short name
// ("Xeon", "RaspberryPi4", "VisionFive", "MangoPi").
func DeviceByName(name string) (Device, error) { return machine.ByName(name) }

// Machine is a live simulated device instance; Core is one simulated
// hardware thread inside a parallel region. Use them to write custom kernels
// against the timing model (see examples/customdevice).
//
// # Bulk range APIs
//
// Element accesses can be charged one at a time (F64.Load / F64.Store /
// Core.Touch) or line-granularly in bulk:
//
//   - Core.TouchRange charges n consecutive unit-stride accesses: one full
//     hierarchy lookup per cache line touched, the line's other elements by
//     repeated addition of their issue cost (DESIGN.md §4.1).
//   - Core.TouchSpans charges n interleaved accesses across several element
//     streams (Span) plus fixed per-iteration cycle charges — the shape of
//     real kernel loops (load b[i], load c[i], store a[i], flops).
//   - F64.LoadRange / F64.StoreRange (and the F32 analogues) wrap TouchRange
//     together with the data movement.
//
// Both are defined to be exactly equivalent to the corresponding per-element
// loop: simulated cycles bit for bit, identical cache/TLB/DRAM statistics
// and replacement state. Oracle tests assert this on every device preset.
//
// # Parallel regions
//
// The core bodies of Machine.Run / ParallelFor / ParallelRange are
// coroutines on the calling goroutine: one runs at a time, switched only at
// shared events (a miss past L1, a dynamic work grab) in (simulated time,
// core ID) order. The bodies of one region must therefore not block on each
// other (channels, WaitGroups): that never had a deterministic outcome and
// now deadlocks. A panic in any body propagates to the caller of the region.
type (
	Machine = sim.Machine
	Core    = sim.Core
	// Span describes one unit-stride element stream inside a
	// Core.TouchSpans batch.
	Span = sim.Span
)

// NewMachine instantiates a device.
func NewMachine(d Device) (*Machine, error) { return sim.New(d) }

// Schedules for Machine.ParallelFor, mirroring OpenMP.
const (
	Static  = sim.Static
	Dynamic = sim.Dynamic
)

// BytesPerSec is a bandwidth; it formats as "12.34 GB/s".
type BytesPerSec = units.BytesPerSec

// Workload/Runner API: the composable execution layer (internal/run).
//
//   - A Workload is one executable kernel configuration: Name() plus
//     Run(ctx, *Machine) → Result. Built-in kernels are adapted by
//     StreamWorkload / TransposeWorkload / BlurWorkload; custom kernels
//     implement the interface directly or wrap a function with WorkloadFunc.
//   - Result is the one unified outcome type: simulated seconds and cycles,
//     logical bytes and bandwidth, and the full per-level cache/TLB/DRAM
//     summary (Mem), with the §3.3 metrics as methods (SpeedupOver,
//     Utilization).
//   - A Runner executes []Job batches on pooled machines (Machine.Reset
//     instead of re-construction) across host goroutines, with results in
//     job order, context cancellation and progress callbacks. Simulated
//     results are bit-identical to serial fresh-machine runs.
type (
	// Workload is an executable kernel configuration.
	Workload = run.Workload
	// Job pairs a Device with a Workload — one cell of a cross-product.
	Job = run.Job
	// Result is the unified outcome of one workload execution.
	Result = run.Result
	// Runner executes job batches on a pool of reusable machines.
	Runner = run.Runner
	// RunnerOptions configures a Runner (parallelism, progress callback).
	RunnerOptions = run.Options
	// RunnerProgress reports one completed job of a batch.
	RunnerProgress = run.Progress
	// MemSummary is the per-level memory-system counter block carried by
	// Result.Mem.
	MemSummary = sim.Summary
	// Keyed is the opt-in memoization contract: a Workload that also
	// implements CacheKey() string declares its Result a pure function of
	// (device parameters, key), letting the Runner cache results across
	// batches with singleflight dedup. All built-in workload adapters
	// implement it; custom deterministic workloads should too.
	Keyed = run.Keyed
)

// NewRunner builds a Runner.
func NewRunner(opt RunnerOptions) *Runner { return run.New(opt) }

// Persistent memo store API (internal/memostore): the Runner memoizes
// keyed results in a tiered store — a bounded in-memory LRU over an
// optional on-disk content-addressed tier — so results survive process
// restarts. OpenResultStore builds one; pass it via RunnerOptions.Store
// (or ServiceOptions.Store) and every computed Result is persisted under
// ResultCacheVersion, checksummed, and served back after a restart without
// re-simulating. Disk faults are never errors: corrupt entries are
// quarantined and re-simulated, failed persists are counted and logged.
// cmd/simd exposes the same store via -cache-dir, and the memo tool
// exports/imports/inspects the directory.
type (
	// ResultStore is the tiered memo store interface the Runner caches
	// through.
	ResultStore = memostore.Store
	// ResultTierStats are the per-tier cache counters (memory and disk
	// hits/misses, evictions, corruption, persists).
	ResultTierStats = memostore.Stats
)

// ResultCacheVersion namespaces persisted results: module identity plus the
// simulation model version. A model change that alters golden cycle counts
// bumps it, cleanly orphaning all previously persisted entries.
const ResultCacheVersion = run.CacheVersion

// OpenResultStore builds the standard tiered result store: a bounded
// in-memory LRU (memEntries entries; <= 0 selects the default) over an
// on-disk tier rooted at dir. An empty dir yields a memory-only store.
// logf (optional) receives the disk tier's operational log lines.
func OpenResultStore(dir string, memEntries int, logf func(format string, args ...any)) (ResultStore, error) {
	store, err := run.OpenStore(dir, memEntries, logf)
	if err != nil {
		return nil, err
	}
	return store, nil
}

// Jobs builds the device × workload cross-product, devices outermost.
func Jobs(devices []Device, workloads []Workload) []Job {
	return run.Cross(devices, workloads)
}

// WorkloadFunc wraps a plain function as a named Workload. The machine
// passed to fn is in power-on state; charge accesses through its arrays and
// cores and report a Result from the simulated clock.
func WorkloadFunc(name string, fn func(context.Context, *Machine) (Result, error)) Workload {
	return run.NewFunc(name, fn)
}

// StreamWorkload adapts a STREAM measurement as a Workload.
func StreamWorkload(cfg StreamConfig) Workload { return run.Stream(cfg) }

// TransposeWorkload adapts a transposition run as a Workload.
func TransposeWorkload(cfg TransposeConfig) Workload { return run.Transpose(cfg) }

// BlurWorkload adapts a Gaussian-blur run as a Workload.
func BlurWorkload(cfg BlurConfig) Workload { return run.Blur(cfg) }

// Register adds a workload to the process-wide registry under its Name,
// making custom kernels addressable exactly like the built-ins. It errors
// on nil workloads, empty names and duplicates.
func Register(w Workload) error { return run.Register(w) }

// MustRegister is Register but panics on error; for package init blocks.
func MustRegister(w Workload) { run.MustRegister(w) }

// WorkloadByName returns a registered workload.
func WorkloadByName(name string) (Workload, error) { return run.Lookup(name) }

// RegisteredWorkloads lists registered workload names, sorted.
func RegisteredWorkloads() []string { return run.Names() }

// WorkloadSpec API: workloads as data (internal/run). A WorkloadSpec is a
// kernel name plus string parameters — parseable from the CLI grammar
// ("stream:test=TRIAD,elems=65536", "transpose/Blocking"), marshalable
// to/from JSON, and buildable into a live Workload through the kernel's
// registered spec factory. The built-in kernels derive their memoization
// CacheKey from the spec's canonical string encoding.
type (
	// WorkloadSpec is a workload described as data: kernel + parameters.
	WorkloadSpec = run.WorkloadSpec
	// KernelInfo documents one spec-buildable kernel (name, summary,
	// parameter grammar, variant shorthand key).
	KernelInfo = run.KernelInfo
	// SpecFactory builds a Workload from a parsed WorkloadSpec.
	SpecFactory = run.SpecFactory
)

// ParseWorkloadSpec parses the workload spec grammar
// (kernel[:key=value,...] or kernel/variant) into a WorkloadSpec.
func ParseWorkloadSpec(s string) (WorkloadSpec, error) { return run.ParseWorkloadSpec(s) }

// MustParseWorkloadSpec is ParseWorkloadSpec but panics on error.
func MustParseWorkloadSpec(s string) WorkloadSpec { return run.MustParseWorkloadSpec(s) }

// NewWorkloadFromSpec materializes a spec through its kernel's registered
// factory (falling back to the plain workload registry for custom names).
func NewWorkloadFromSpec(spec WorkloadSpec) (Workload, error) { return run.NewWorkload(spec) }

// ParseWorkload parses and materializes a spec string in one step.
func ParseWorkload(s string) (Workload, error) { return run.ParseWorkload(s) }

// RegisterKernel adds a spec factory to the process-wide kernel registry,
// making a custom kernel addressable as data (CLI grammar, JSON requests)
// exactly like the built-ins.
func RegisterKernel(info KernelInfo, build SpecFactory) error {
	return run.RegisterSpecFactory(info, build)
}

// MustRegisterKernel is RegisterKernel but panics on error.
func MustRegisterKernel(info KernelInfo, build SpecFactory) {
	run.MustRegisterSpecFactory(info, build)
}

// Kernels lists the registered spec-buildable kernels, sorted by name.
func Kernels() []KernelInfo { return run.Kernels() }

// Service API: the transport-agnostic request surface (internal/service) —
// JSON-serializable requests executed on one shared memoized Runner, with
// per-request timeouts and a bounded in-flight admission limit. cmd/simd
// fronts a Service with HTTP; NewServiceHandler exposes the same wire
// protocol for embedding.
type (
	// Service executes Batch and Sweep requests on a shared runner.
	Service = service.Service
	// ServiceOptions configures a Service (runner sharing, admission
	// limit, job limit, timeouts).
	ServiceOptions = service.Options
	// BatchRequest asks for a device × workload cross-product.
	BatchRequest = service.BatchRequest
	// SweepRequest asks for a device-parameter ablation.
	SweepRequest = service.SweepRequest
	// ServiceResponse carries result rows, cache stats and per-job errors.
	ServiceResponse = service.Response
	// ServiceResultRow is one job outcome (plus sweep deltas when
	// applicable).
	ServiceResultRow = service.ResultRow
	// ServiceRequestOptions are the per-request knobs (timeout).
	ServiceRequestOptions = service.RequestOptions
	// ServiceCacheStats reports the shared memo cache around one request.
	ServiceCacheStats = service.CacheStats
	// ServiceDeviceInfo is one device preset as the listing endpoints
	// report it.
	ServiceDeviceInfo = service.DeviceInfo
	// ServiceWorkloadsInfo is the kernel/workload discovery document.
	ServiceWorkloadsInfo = service.WorkloadsInfo
	// ServiceJobRequest submits work asynchronously: exactly one of Batch
	// or Sweep.
	ServiceJobRequest = service.JobRequest
	// ServiceJobStatus is the pollable snapshot of one async job.
	ServiceJobStatus = service.JobStatus
	// ServiceJobState is the async job lifecycle state
	// (queued/running/done/failed/cancelled).
	ServiceJobState = service.JobState
	// ServiceOverloadError wraps overload and rate-limit refusals with a
	// Retry-After hint.
	ServiceOverloadError = service.OverloadError
	// ServiceDrainReport is the outcome of a graceful drain.
	ServiceDrainReport = service.DrainReport
)

// Async job lifecycle states (see ServiceJobState).
const (
	JobQueued    = service.JobQueued
	JobRunning   = service.JobRunning
	JobDone      = service.JobDone
	JobFailed    = service.JobFailed
	JobCancelled = service.JobCancelled
)

// ErrServiceOverloaded is returned (HTTP 429) when a request arrives while
// the service's admission limit is saturated and its wait queue is full.
var ErrServiceOverloaded = service.ErrOverloaded

// ErrServiceRateLimited is returned (HTTP 429) when a client exceeds its
// per-client request rate.
var ErrServiceRateLimited = service.ErrRateLimited

// ErrServiceDraining is returned (HTTP 503) while the service is shutting
// down and no longer admits new work.
var ErrServiceDraining = service.ErrDraining

// ServiceClientID tags ctx with a client identity for per-client rate
// limiting (the HTTP transport uses the X-Client-ID header instead).
func ServiceClientID(ctx context.Context, id string) context.Context {
	return service.WithClientID(ctx, id)
}

// NewService builds a Service.
func NewService(opt ServiceOptions) *Service { return service.New(opt) }

// NewServiceHandler fronts a Service with the simd HTTP wire protocol
// (GET /healthz, /v1/devices, /v1/workloads; POST /v1/batch, /v1/sweep).
func NewServiceHandler(s *Service) http.Handler { return service.NewHandler(s) }

// Sweep API: declarative device-parameter ablations (internal/sweep). Axes
// mutate a base Device — L2 present/size, MSHR count, prefetcher
// distance/ramp, miss overlap, DRAM channels/latency, cache ways/policy —
// and the axis cross-product runs as one memoized batch, with every cell
// reporting speedup and bandwidth ratios against the unmutated base cell.
type (
	// SweepAxis is one named sweep dimension.
	SweepAxis = sweep.Axis
	// SweepConfig describes one sweep: base device, axes, workloads.
	SweepConfig = sweep.Config
	// SweepResults is the outcome: per-cell results with base-relative
	// deltas, and a Table() renderer.
	SweepResults = sweep.Results
)

// ParseSweepAxis compiles one "name=v1,v2,..." axis declaration — the same
// grammar as cmd/sweep's -axis flag (l2=off,128KiB / maxinflight=1,2,4 /
// preframp=on,off / ...; every axis accepts the literal "base").
func ParseSweepAxis(s string) (SweepAxis, error) { return sweep.ParseAxis(s) }

// MustParseSweepAxis is ParseSweepAxis but panics on error.
func MustParseSweepAxis(s string) SweepAxis { return sweep.MustParseAxis(s) }

// RunSweep expands and executes a device-parameter sweep.
func RunSweep(ctx context.Context, cfg SweepConfig) (*SweepResults, error) {
	return sweep.Run(ctx, cfg)
}

// STREAM (§4.1).
type (
	// StreamTest is COPY, SCALE, SUM or TRIAD.
	StreamTest = stream.Test
	// StreamConfig sizes one STREAM measurement.
	StreamConfig = stream.Config
)

// The four STREAM tests.
const (
	StreamCopy  = stream.Copy
	StreamScale = stream.Scale
	StreamSum   = stream.Sum
	StreamTriad = stream.Triad
)

// StreamTests returns all four tests in reporting order.
func StreamTests() []StreamTest { return stream.Tests() }

// StreamLevels derives the measurable memory levels of a device, sized per
// the paper's method (scale divides only the DRAM working set).
func StreamLevels(d Device, scale int) []stream.Level { return stream.Levels(d, scale) }

// Matrix transposition (§4.2).
type (
	// TransposeVariant is one of the five implementations.
	TransposeVariant = transpose.Variant
	// TransposeConfig sizes one run.
	TransposeConfig = transpose.Config
)

// The five transposition variants of Fig. 2.
const (
	TransposeNaive          = transpose.Naive
	TransposeParallel       = transpose.Parallel
	TransposeBlocking       = transpose.Blocking
	TransposeManualBlocking = transpose.ManualBlocking
	TransposeDynamic        = transpose.Dynamic
)

// TransposeVariants returns the five variants in figure order.
func TransposeVariants() []TransposeVariant { return transpose.Variants() }

// Gaussian blur (§4.3).
type (
	// BlurVariant is one of the five implementations.
	BlurVariant = blur.Variant
	// BlurConfig sizes one run.
	BlurConfig = blur.Config
)

// The five blur variants of Fig. 6.
const (
	BlurNaive      = blur.Naive
	BlurUnitStride = blur.UnitStride
	BlurOneD       = blur.OneD
	BlurMemory     = blur.Memory
	BlurParallel   = blur.Parallel
)

// BlurVariants returns the five variants in figure order.
func BlurVariants() []BlurVariant { return blur.Variants() }

// Experiment suite: regenerates the paper's figures.
type (
	// Options configures a Suite (scale, device list, verification).
	Options = core.Options
	// Suite runs the figure experiments, caching STREAM bandwidths.
	Suite = core.Suite
	// Figure row types.
	Fig1Cell = core.Fig1Cell
	Fig2Row  = core.Fig2Row
	Fig3Row  = core.Fig3Row
	Fig6Row  = core.Fig6Row
	Fig7Row  = core.Fig7Row
)

// NewSuite builds an experiment suite.
func NewSuite(opt Options) *Suite { return core.NewSuite(opt) }

// Paper-scale workload constants (§4).
const (
	PaperMatrixSmall = core.PaperMatrixSmall
	PaperMatrixLarge = core.PaperMatrixLarge
	PaperImageW      = core.PaperImageW
	PaperImageH      = core.PaperImageH
	PaperImageC      = core.PaperImageC
	PaperFilter      = core.PaperFilter
)
