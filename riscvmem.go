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
// WorkloadFunc) and plug into the same Runner and registry as the
// built-ins — see examples/customdevice. The paper's figures are
// regenerated by cmd/paperfigs on the same machinery.
//
// Workloads are also addressable as pure data: a WorkloadSpec (kernel name
// + string parameters, grammar "stream:test=TRIAD,elems=65536") names the
// same workloads, and a Service (NewService / NewServiceHandler, served by
// cmd/simd) executes JSON BatchRequest/SweepRequest payloads on a shared
// memoized runner — the library as a daemon; see examples/client and
// examples/l2sweep.
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
//   - F64.LoadRange wraps TouchRange together with the data read.
//
// All are defined to be exactly equivalent to the corresponding per-element
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
//     summary (Mem), with the §3.3 speedup as a method (SpeedupOver).
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
)

// NewRunner builds a Runner.
func NewRunner(opt RunnerOptions) *Runner { return run.New(opt) }

// Persistent memo store API (internal/memostore): the Runner memoizes
// keyed results in a tiered store — a bounded in-memory LRU over an
// optional on-disk content-addressed tier — so results survive process
// restarts. RunnerOptions.Store and ServiceOptions.Store take one; cmd/simd
// opens it with -cache-dir, and the memo tool exports, imports and inspects
// the directory.
type (
	// ResultStore is the tiered memo store interface the Runner caches
	// through.
	ResultStore = memostore.Store
	// ResultTierStats are the per-tier cache counters (memory and disk
	// hits/misses, evictions, corruption, persists).
	ResultTierStats = memostore.Stats
)

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

// MustRegister adds a workload to the process-wide registry under its Name,
// making custom kernels addressable exactly like the built-ins. It panics
// on nil workloads, empty names and duplicates; call it from an init block.
func MustRegister(w Workload) { run.MustRegister(w) }

// WorkloadByName returns a registered workload.
func WorkloadByName(name string) (Workload, error) { return run.Lookup(name) }

// WorkloadSpec API: workloads as data (internal/run). A WorkloadSpec is a
// kernel name plus string parameters — parseable from the CLI grammar
// ("stream:test=TRIAD,elems=65536", "transpose/Blocking") and marshalable
// to and from JSON, which is how the Service's requests name workloads.
// The built-in kernels derive their memoization CacheKey from the spec's
// canonical string encoding.
type (
	// WorkloadSpec is a workload described as data: kernel + parameters.
	WorkloadSpec = run.WorkloadSpec
	// KernelInfo documents one spec-buildable kernel (name, summary,
	// parameter grammar, variant shorthand key).
	KernelInfo = run.KernelInfo
)

// MustParseWorkloadSpec parses the workload spec grammar
// (kernel[:key=value,...] or kernel/variant) into a WorkloadSpec, and
// panics on a malformed spec.
func MustParseWorkloadSpec(s string) WorkloadSpec { return run.MustParseWorkloadSpec(s) }

// Service API: the transport-agnostic request surface (internal/service) —
// JSON-serializable requests executed on one shared memoized Runner, with
// per-request timeouts and a bounded in-flight admission limit. cmd/simd
// fronts a Service with HTTP; NewServiceHandler exposes the same wire
// protocol for embedding.
type (
	// Service executes Batch and Sweep requests on a shared runner.
	Service = service.Service
	// ServiceOptions configures a Service (parallelism, result store,
	// admission limit, job limit, timeouts).
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

// NewService builds a Service.
func NewService(opt ServiceOptions) *Service { return service.New(opt) }

// NewServiceHandler fronts a Service with the simd HTTP wire protocol; the
// routes are listed in README.md.
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

// MustParseSweepAxis compiles one "name=v1,v2,..." axis declaration — the
// same grammar as cmd/kernel's -axis flag (l2=off,128KiB / maxinflight=1,2,4
// / preframp=on,off / ...; every axis accepts the literal "base") — and
// panics on a malformed one.
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

// Paper-scale image constants (§4.3).
const (
	PaperImageW = core.PaperImageW
	PaperImageH = core.PaperImageH
	PaperImageC = core.PaperImageC
	PaperFilter = core.PaperFilter
)
