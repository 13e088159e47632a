// Package service is the transport-agnostic request surface over the
// Workload/Runner and Sweep layers: JSON-serializable requests in, JSON-
// serializable responses out, with nothing about Go closures or internal
// types on the wire.
//
// A Service fronts one Executor (see executor.go) — by default a memoized,
// pooled run.Runner shared by every request, so identical cells across
// requests simulate exactly once; in a cluster, the coordinator's
// dispatcher — and adds what a long-running daemon needs that a library
// call does not: per-request timeouts, admission control (a bounded
// in-flight limit fronted by a bounded wait queue — requests wait for a
// slot up to their own deadline, and only a full queue fails fast with
// ErrOverloaded), per-client token-bucket rate limits, an async job
// lifecycle (SubmitJob/Job/CancelJob, see jobs.go) and graceful drain
// (StartDrain/Drain, see drain.go). cmd/simd fronts a Service with HTTP
// (see NewHandler); other transports (RPC, queues, tests) call Batch/Sweep
// directly with the same request values. Both request shapes share one
// path: plan (PlanRequest: validate into a job list) → timeout → admit →
// Executor → assemble. Over HTTP the plan step sits behind a per-Service
// plan cache keyed by the exact body bytes (plancache.go): a repeated
// body skips decode and PlanRequest, never the drain and rate-limit gate
// before them or anything after. A cluster worker's recipe takes the same
// front (ExecuteRecipe).
//
// The admit → queue → run → drain state machine and the full failure
// taxonomy are documented in DESIGN.md §9.
//
// Results served through a Service are bit-identical to direct Runner calls
// with the same configuration — the facade adds admission and encoding, not
// execution semantics. The package's oracle test pins this over the full
// kernel × device cross-product.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"riscvmem/internal/faultinject"
	"riscvmem/internal/machine"
	"riscvmem/internal/memostore"
	"riscvmem/internal/obs"
	"riscvmem/internal/run"
	"riscvmem/internal/sweep"
	"riscvmem/internal/units"
)

// ErrOverloaded is returned when a request arrives while MaxInFlight
// requests are executing AND the wait queue is full. Transports should map
// it to their "try again later" signal (HTTP 429); the wrapping
// OverloadError carries a Retry-After hint.
var ErrOverloaded = errors.New("service: too many requests in flight")

// ErrRateLimited is returned when a client exceeds its per-client request
// rate (HTTP 429, with a Retry-After from the bucket's refill time).
var ErrRateLimited = errors.New("service: client rate limit exceeded")

// ErrDraining is returned when the service has stopped admitting new work
// because it is shutting down (HTTP 503). Already-queued and running work
// still completes inside the drain budget.
var ErrDraining = errors.New("service: draining, not admitting new work")

// OverloadError wraps ErrOverloaded or ErrRateLimited with a hint for when
// retrying is likely to succeed. errors.Is still matches the wrapped
// sentinel.
type OverloadError struct {
	// RetryAfter estimates when capacity frees: for a full queue it is
	// derived from the observed request latency and the backlog depth, for
	// a rate limit from the bucket's refill time.
	RetryAfter time.Duration
	reason     error
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.reason, e.RetryAfter.Round(time.Millisecond))
}
func (e *OverloadError) Unwrap() error { return e.reason }

// ValidationError marks a request the caller could fix: unknown devices or
// kernels, malformed specs, missing workloads, an oversized cross-product.
// Transports report it as the client's fault (HTTP 400); anything not
// explicitly classified is a server-side failure (HTTP 500).
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return e.Err.Error() }
func (e *ValidationError) Unwrap() error { return e.Err }

// invalidf builds a ValidationError from a format string.
func invalidf(format string, args ...any) error {
	return &ValidationError{Err: fmt.Errorf(format, args...)}
}

// invalid wraps an error as a ValidationError (nil stays nil).
func invalid(err error) error {
	if err == nil {
		return nil
	}
	return &ValidationError{Err: err}
}

// ExecutionError marks a failure that occurred while running an already
// validated request — the sweep path aborts wholesale on any job error
// (the cells' base-relative deltas would be meaningless) — so transports
// can report it as a server-side failure (HTTP 500) rather than a bad
// request. Batch requests never produce one: their job failures are
// per-row partial results.
type ExecutionError struct{ Err error }

func (e *ExecutionError) Error() string { return e.Err.Error() }
func (e *ExecutionError) Unwrap() error { return e.Err }

// Options configures a Service.
type Options struct {
	// Parallelism is forwarded to the memoized Runner the Service builds;
	// 0 defaults to the host CPU count.
	Parallelism int
	// Store is the tiered memo store forwarded to that Runner —
	// run.OpenStore builds one with a persistent disk tier so a restarted
	// daemon serves previously computed results without re-simulating. Nil
	// gets the runner's default bounded in-memory store.
	Store memostore.Store
	// Executor replaces the local runner as the place admitted plans run;
	// nil executes in-process on the Runner built from the two fields
	// above. cluster.New passes the coordinator, which then serves this
	// whole facade fleet-wide; Parallelism and Store are unused with it.
	Executor Executor
	// MaxInFlight bounds concurrently executing requests. 0 → 4.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; a waiting
	// request is admitted when a slot frees or fails when its own deadline
	// expires first. Only when the queue itself is full does admission fail
	// fast with ErrOverloaded. 0 → 2×MaxInFlight; -1 disables queueing
	// (PR-4-style fail-fast admission).
	MaxQueue int
	// MaxJobs bounds the device × workload (or cell × workload) size of a
	// single request. 0 → 4096.
	MaxJobs int
	// DefaultTimeout applies to requests that carry no timeout of their
	// own; 0 means no default timeout. The timeout covers queue wait plus
	// execution.
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied timeouts (and the default); 0 means
	// no cap.
	MaxTimeout time.Duration
	// ClientRate enables per-client token-bucket rate limiting: sustained
	// requests per second allowed per client ID (see WithClientID; HTTP
	// uses the X-Client-ID header, falling back to the remote host).
	// 0 disables rate limiting.
	ClientRate float64
	// ClientBurst is the bucket size — requests a client may issue
	// back-to-back before the sustained rate applies. 0 → max(1, ⌈rate⌉).
	ClientBurst int
	// JobTTL is how long a finished async job (and its rows) stays
	// retrievable before garbage collection. 0 → 5 minutes.
	JobTTL time.Duration
	// MaxStoredJobs bounds the job store. When full, submission evicts the
	// oldest finished job, or fails with ErrOverloaded if every stored job
	// is still live. 0 → 256.
	MaxStoredJobs int
	// Logf, when set, receives operational log lines (drain progress,
	// abandoned jobs, response-encoding failures). Nil discards them;
	// cmd/simd passes log.Printf.
	Logf func(format string, args ...any)
}

// Service is the shared execution facade. Safe for concurrent use.
type Service struct {
	exec   Executor
	runner *run.Runner // the local executor's runner; nil under Options.Executor
	opt    Options
	sem    chan struct{}

	queued    atomic.Int64   // requests waiting for a slot (≤ MaxQueue)
	latencyNS atomic.Int64   // EWMA of observed execution latency, for Retry-After
	latency   *obs.Histogram // coarse request-duration histogram, for /metrics
	draining  atomic.Bool
	limiter   *limiter
	jobs      *jobStore
	plans     planCache // the plan per HTTP request body or worker recipe
}

// New builds a Service.
func New(opt Options) *Service {
	if opt.MaxInFlight <= 0 {
		opt.MaxInFlight = 4
	}
	switch {
	case opt.MaxQueue == 0:
		opt.MaxQueue = 2 * opt.MaxInFlight
	case opt.MaxQueue < 0:
		opt.MaxQueue = 0 // fail-fast admission
	}
	if opt.MaxJobs <= 0 {
		opt.MaxJobs = 4096
	}
	if opt.JobTTL <= 0 {
		opt.JobTTL = 5 * time.Minute
	}
	if opt.MaxStoredJobs <= 0 {
		opt.MaxStoredJobs = 256
	}
	s := &Service{exec: opt.Executor, opt: opt, sem: make(chan struct{}, opt.MaxInFlight), latency: newLatencyHist()}
	if s.exec == nil {
		s.runner = run.New(run.Options{Parallelism: opt.Parallelism, Store: opt.Store})
		s.exec = &localExecutor{runner: s.runner, kernels: newKernelHist()}
	}
	if opt.ClientRate > 0 {
		s.limiter = newLimiter(opt.ClientRate, opt.ClientBurst)
	}
	s.jobs = newJobStore(opt.JobTTL, opt.MaxStoredJobs)
	return s
}

// logf forwards to Options.Logf when configured.
func (s *Service) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// Runner exposes the service's underlying runner (for sharing its memo
// cache with in-process callers); nil when a custom Executor runs the work.
func (s *Service) Runner() *run.Runner { return s.runner }

// RequestOptions are the per-request knobs every request type carries.
type RequestOptions struct {
	// TimeoutMS bounds the request's execution in milliseconds; 0 falls
	// back to the service default. Values above the service cap are
	// clamped, not rejected.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchRequest asks for a device × workload cross-product, devices
// outermost — the paper's evaluation shape as data. An empty Devices list
// means all presets.
type BatchRequest struct {
	Devices   []string           `json:"devices,omitempty"`
	Workloads []run.WorkloadSpec `json:"workloads"`
	Options   RequestOptions     `json:"options,omitempty"`
}

// SweepRequest asks for a device-parameter ablation: axes in the sweep
// grammar ("l2=off,base,1MiB") mutate the base device, and every cell runs
// every workload.
type SweepRequest struct {
	Device    string             `json:"device"`
	Axes      []string           `json:"axes,omitempty"`
	Workloads []run.WorkloadSpec `json:"workloads"`
	Options   RequestOptions     `json:"options,omitempty"`
}

// CacheStats reports the shared memo cache around one request. Hits/Misses
// are service-lifetime totals; RequestHits/RequestMisses are the deltas
// observed across this request — RequestMisses is the number of new
// simulations the request caused (0 for a fully warm request). Tiers breaks
// the lifetime totals down by store tier (memory LRU vs persistent disk);
// RequestTiers is the same breakdown as a per-request delta — a restarted
// daemon serving a warm batch shows request_misses 0 and the work in
// RequestTiers.DiskHits. Deltas are exact for serial use and approximate
// when requests overlap (concurrent requests' work is indistinguishable in
// the shared counters).
type CacheStats struct {
	Hits          uint64          `json:"hits"`
	Misses        uint64          `json:"misses"`
	RequestHits   uint64          `json:"request_hits"`
	RequestMisses uint64          `json:"request_misses"`
	Tiers         memostore.Stats `json:"tiers"`
	RequestTiers  memostore.Stats `json:"request_tiers"`
}

// ResultRow is one job outcome: the unified run.Result plus, for sweep
// requests, the cell's axis labels and base-relative deltas. Error is set
// (and the measurement zero) when the job failed.
type ResultRow struct {
	run.Result
	// Cell holds one "axis=value" label per sweep axis, in axis order;
	// empty for batch rows.
	Cell []string `json:"cell,omitempty"`
	// Speedup and BandwidthVsBase compare a sweep cell against the
	// unmutated base cell running the same workload.
	Speedup         float64 `json:"speedup,omitempty"`
	BandwidthVsBase float64 `json:"bandwidth_vs_base,omitempty"`
	Error           string  `json:"error,omitempty"`
}

// bare reports whether the row carries nothing beyond its run.Result, so
// that it encodes exactly as the Result alone.
func (row *ResultRow) bare() bool {
	return len(row.Cell) == 0 && row.Speedup == 0 && row.BandwidthVsBase == 0 && row.Error == ""
}

// Response is the outcome of one Batch or Sweep request. Results are in
// request order (devices outermost for batches, cells outermost for
// sweeps). Errors collects the failing rows' messages; a response with a
// non-empty Results and non-empty Errors is a partial success.
type Response struct {
	Results []ResultRow `json:"results"`
	Cache   CacheStats  `json:"cache"`
	Errors  []string    `json:"errors,omitempty"`
}

// DeviceInfo is one device preset as the listing endpoints report it.
type DeviceInfo struct {
	Name              string  `json:"name"`
	CPU               string  `json:"cpu"`
	ISA               string  `json:"isa"`
	Cores             int     `json:"cores"`
	FreqGHz           float64 `json:"freq_ghz"`
	RAMBytes          int64   `json:"ram_bytes"`
	PeakDRAMBandwidth string  `json:"peak_dram_bandwidth"`
}

// WorkloadsInfo is the discovery document: spec-buildable kernels with
// their parameter docs, plus registered custom workload names, the spec
// grammar, and the sweep axis names.
type WorkloadsInfo struct {
	Kernels    []run.KernelInfo `json:"kernels"`
	Registered []string         `json:"registered,omitempty"`
	Grammar    string           `json:"grammar"`
	SweepAxes  []string         `json:"sweep_axes"`
}

// Devices lists the device presets.
func (s *Service) Devices() []DeviceInfo {
	all := machine.All()
	out := make([]DeviceInfo, len(all))
	for i, d := range all {
		out[i] = DeviceInfo{
			Name: d.Name, CPU: d.CPU, ISA: d.ISA,
			Cores: d.Cores, FreqGHz: d.FreqGHz, RAMBytes: d.RAMBytes,
			PeakDRAMBandwidth: d.PeakDRAMBandwidth().String(),
		}
	}
	return out
}

// Workloads describes everything a request can name.
func (s *Service) Workloads() WorkloadsInfo {
	return WorkloadsInfo{
		Kernels:    run.Kernels(),
		Registered: run.Names(),
		Grammar:    run.SpecGrammar,
		SweepAxes:  sweep.AxisNames(),
	}
}

// admit reserves an execution slot. The fast path is one channel send —
// free when the service is not saturated. Under saturation the request
// joins a bounded wait queue and blocks until a slot frees or ctx ends
// (the caller applies the request deadline to ctx first, so a request
// waits at most its own deadline). Only a full queue fails fast, with an
// OverloadError carrying the Retry-After hint.
//
// The returned release frees the slot and feeds the observed execution
// latency into the EWMA behind retryAfter. It must be called exactly once.
func (s *Service) admit(ctx context.Context) (release func(), err error) {
	if err := faultinject.Fire(faultinject.ServiceAdmit); err != nil {
		return nil, err
	}
	select {
	case s.sem <- struct{}{}:
		return s.releaseFunc(), nil
	default:
	}
	// Saturated: join the queue, bounded optimistically (Add then check) so
	// the common contended case stays a single atomic.
	if n := s.queued.Add(1); n > int64(s.opt.MaxQueue) {
		s.queued.Add(-1)
		return nil, &OverloadError{RetryAfter: s.retryAfter(), reason: ErrOverloaded}
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return s.releaseFunc(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// releaseFunc builds the slot-release closure for one admitted request.
func (s *Service) releaseFunc() func() {
	start := time.Now()
	return func() {
		s.observeLatency(time.Since(start))
		<-s.sem
	}
}

// observeLatency folds one request's execution time into the EWMA the
// Retry-After hint is derived from. The racy load/store pair is deliberate:
// the value is a hint, and a lost update under concurrent completions is
// harmless.
func (s *Service) observeLatency(d time.Duration) {
	s.latency.Observe("", d)
	old := s.latencyNS.Load()
	if old == 0 {
		s.latencyNS.Store(int64(d))
		return
	}
	s.latencyNS.Store((3*old + int64(d)) / 4)
}

// retryAfter estimates when admission is likely to succeed: the observed
// per-request latency scaled by how many "waves" of the backlog must drain
// before a queue slot frees, clamped to [1s, 5m]. With no latency history
// yet it falls back to one second.
func (s *Service) retryAfter() time.Duration {
	lat := time.Duration(s.latencyNS.Load())
	if lat <= 0 {
		return time.Second
	}
	waves := (int(s.queued.Load()) + s.opt.MaxInFlight) / s.opt.MaxInFlight
	d := lat * time.Duration(waves)
	if d < time.Second {
		return time.Second
	}
	if d > 5*time.Minute {
		return 5 * time.Minute
	}
	return d
}

// checkAdmittable is the pre-validation gate every entry point passes:
// drain state first (a draining service admits nothing new), then the
// caller's rate limit.
func (s *Service) checkAdmittable(ctx context.Context) error {
	if s.draining.Load() {
		return ErrDraining
	}
	if s.limiter != nil {
		if wait, ok := s.limiter.take(ClientID(ctx)); !ok {
			return &OverloadError{RetryAfter: wait, reason: ErrRateLimited}
		}
	}
	return nil
}

// timeoutCtx applies the request's effective timeout: the request value
// when given, else the service default, clamped by the service cap. With
// neither a request value nor a default, the request is unbounded — the
// cap limits configured timeouts, it does not invent one.
func (s *Service) timeoutCtx(ctx context.Context, opt RequestOptions) (context.Context, context.CancelFunc) {
	d := s.opt.DefaultTimeout
	if opt.TimeoutMS > 0 {
		d = time.Duration(opt.TimeoutMS) * time.Millisecond
	}
	if d <= 0 {
		return ctx, func() {}
	}
	if s.opt.MaxTimeout > 0 && d > s.opt.MaxTimeout {
		d = s.opt.MaxTimeout
	}
	return context.WithTimeout(ctx, d)
}

// resolveWorkloads materializes every spec of a request.
func resolveWorkloads(specs []run.WorkloadSpec) ([]run.Workload, error) {
	if len(specs) == 0 {
		return nil, errors.New("service: request names no workloads")
	}
	out := make([]run.Workload, len(specs))
	for i, spec := range specs {
		w, err := run.NewWorkload(spec)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// maxHostBytes bounds the host memory one job may make the daemon
// allocate. The simulator backs every simulated array with a Go slice, so
// a job the device's simulated RAM admits (up to 56 GiB on Xeon) could
// exhaust the host. It admits every cell of paperfigs -scale 2 and coarser;
// at -scale 1, Fig. 2 and 3's 16384² transposition takes 2 GiB.
const maxHostBytes = 1 << 30

// hostSized is a workload that states, before it runs, the most host
// memory it can allocate on a device: the built-in kernels.
type hostSized interface {
	HostBytes(device machine.Spec) int64
}

// hostChecked refuses a plan with a job over maxHostBytes as a
// ValidationError, at planning, before anything is allocated.
func hostChecked(p *Plan) (*Plan, error) {
	for _, job := range p.Jobs {
		if hs, ok := job.Workload.(hostSized); ok {
			if n := hs.HostBytes(job.Device); n > maxHostBytes {
				return nil, invalidf("service: %s on %s could allocate %s of host memory, more than the %s one job may take",
					job.Workload.Name(), job.Device.Name, units.Bytes(n), units.Bytes(maxHostBytes))
			}
		}
	}
	return p, nil
}

// Batch executes a device × workload cross-product. Request-shaped
// problems — unknown devices or kernels, malformed specs, no workloads, an
// oversized cross-product (all ValidationError), admission overload — fail
// the call; per-job simulation failures land in the Response rows instead,
// so one bad cell does not void the rest of the request.
func (s *Service) Batch(ctx context.Context, req BatchRequest) (*Response, error) {
	return s.serve(ctx, JobRequest{Batch: &req})
}

// Sweep executes a device-parameter ablation. The axis grammar and
// semantics are cmd/kernel -axis's; every cell row carries its axis
// labels and base-relative deltas.
func (s *Service) Sweep(ctx context.Context, req SweepRequest) (*Response, error) {
	return s.serve(ctx, JobRequest{Sweep: &req})
}

// serve is the synchronous path of the Go API: plan, then run.
func (s *Service) serve(ctx context.Context, req JobRequest) (*Response, error) {
	p, err := s.plan(ctx, req)
	if err != nil {
		return nil, err
	}
	resp, _, err := s.run(ctx, p)
	return resp, err
}

// plan is the front of every request: the admission gate, then
// PlanRequest under the service's job limit.
func (s *Service) plan(ctx context.Context, req JobRequest) (*Plan, error) {
	if err := s.checkAdmittable(ctx); err != nil {
		return nil, err
	}
	return PlanRequest(req, s.opt.MaxJobs)
}

// PlanRequest validates a request — exactly one of Batch or Sweep — into
// its Plan; every failure is a ValidationError. maxJobs > 0 bounds the job
// count (a sweep's before its grid is expanded, see sweep.NewPlan); 0
// leaves it unbounded. Every job is held to maxHostBytes. It is the one
// answer to "which job is index i": the service plans every request with
// it, and a cluster worker plans the recipe its assignment carries —
// passing 0, since the coordinator already applied the bound — to resolve
// its cells' job indexes to the same jobs.
func PlanRequest(req JobRequest, maxJobs int) (*Plan, error) {
	b, sw := req.Batch, req.Sweep
	if (b == nil) == (sw == nil) {
		return nil, invalidf("service: job request must set exactly one of batch or sweep")
	}
	if sw != nil {
		if sw.Device == "" {
			return nil, invalidf("service: sweep request names no device")
		}
		base, err := machine.ByName(sw.Device)
		if err != nil {
			return nil, invalid(err)
		}
		axes, err := sweep.ParseAxes(sw.Axes)
		if err != nil {
			return nil, invalid(err)
		}
		workloads, err := resolveWorkloads(sw.Workloads)
		if err != nil {
			return nil, invalid(err)
		}
		grid, err := sweep.NewPlan(base, axes, workloads, maxJobs)
		if err != nil {
			return nil, invalid(err)
		}
		return hostChecked(&Plan{Jobs: grid.Jobs, Request: req, grid: grid})
	}
	devices := make([]machine.Spec, len(b.Devices))
	for i, name := range b.Devices {
		spec, err := machine.ByName(name)
		if err != nil {
			return nil, invalid(err)
		}
		devices[i] = spec
	}
	if len(devices) == 0 {
		devices = machine.All() // an empty Devices list means all presets
	}
	workloads, err := resolveWorkloads(b.Workloads)
	if err != nil {
		return nil, invalid(err)
	}
	if n := len(devices) * len(workloads); maxJobs > 0 && n > maxJobs {
		return nil, invalidf("service: request is %d jobs, limit %d", n, maxJobs)
	}
	return hostChecked(&Plan{Jobs: run.Cross(devices, workloads), Request: req})
}

// run takes a planned request through the rest of the synchronous path,
// returning beside the Response each row's stored JSON (see execute). The
// timeout is applied before admission: a request waits in the queue at
// most up to its own deadline.
func (s *Service) run(ctx context.Context, p *Plan) (*Response, [][]byte, error) {
	ctx, cancel := s.timeoutCtx(ctx, p.Request.options())
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	return s.execute(ctx, p, nil)
}

// execute hands a plan to the Executor inside an already-admitted slot and
// assembles the Response. onProgress (optional) observes each completion
// with the raw result — the async job path streams rows through it; a
// sweep's base-relative deltas need the full grid and arrive with the
// final Response. Beside the Response travels the Executor's stored JSON
// of each row's run.Result (nil entries where it has none), aligned with
// Response.Results, for the reply writer to splice.
func (s *Service) execute(ctx context.Context, p *Plan, onProgress func(run.Progress)) (*Response, [][]byte, error) {
	out, err := s.exec.Execute(ctx, p, onProgress)
	if err != nil {
		return nil, nil, err
	}
	if p.grid == nil {
		return assembleBatch(out.Results, out.Errs, out.Cache), out.JSON, nil
	}
	res, err := p.grid.Assemble(out.Results, out.Errs)
	if err != nil {
		// The request validated (device, axes and workloads all resolved,
		// the grid expanded), so this is an execution failure.
		return nil, nil, &ExecutionError{Err: err}
	}
	resp := &Response{Results: make([]ResultRow, len(res.PerCell)), Cache: out.Cache}
	for i, cr := range res.PerCell {
		resp.Results[i] = ResultRow{
			Result:          cr.Result,
			Cell:            cr.Cell.Labels,
			Speedup:         cr.Speedup,
			BandwidthVsBase: cr.BandwidthVsBase,
		}
	}
	// PerCell[i] is job i's result, so the stored rows stay aligned.
	return resp, out.JSON, nil
}

// jobRow renders one job outcome as a response row; a failed job's Result
// carries only the cell's names, as the executor reports it.
func jobRow(res run.Result, err error) ResultRow {
	row := ResultRow{Result: res}
	if err != nil {
		row.Error = err.Error()
	}
	return row
}

// assembleBatch renders positional job outcomes as a batch Response.
func assembleBatch(results []run.Result, errs []error, cache CacheStats) *Response {
	resp := &Response{Results: make([]ResultRow, len(results)), Cache: cache}
	// Jobs cut off by a dead context — skipped outright or abandoned
	// mid-run — collapse into one Errors entry with a count: a timed-out
	// 4096-job batch must not emit 4096 identical strings. errors.Is, not
	// ==, so the runner's wrapped abandonment errors (and workloads
	// wrapping their own context error) collapse too; each row still
	// carries its individual error field.
	skipped, ctxErr := 0, error(nil)
	for i := range results {
		resp.Results[i] = jobRow(results[i], errs[i])
		switch {
		case errs[i] == nil:
		case errors.Is(errs[i], context.Canceled) || errors.Is(errs[i], context.DeadlineExceeded):
			skipped++
			if ctxErr == nil {
				ctxErr = context.Canceled
				if errors.Is(errs[i], context.DeadlineExceeded) {
					ctxErr = context.DeadlineExceeded
				}
			}
		default:
			// The executor's error already names its cell.
			resp.Errors = append(resp.Errors, resp.Results[i].Error)
		}
	}
	switch {
	case skipped == 1:
		resp.Errors = append(resp.Errors, fmt.Sprintf("1 job skipped: %v", ctxErr))
	case skipped > 1:
		resp.Errors = append(resp.Errors, fmt.Sprintf("%d jobs skipped: %v", skipped, ctxErr))
	}
	return resp
}

// ExecuteRecipe runs a cluster worker's assignment: the jobs at the given
// indexes of the plan of recipe, a JobRequest's JSON as the coordinator
// encoded it. The recipe takes the HTTP handler's front (cachedPlan), so a
// worker decodes and plans each distinct recipe once, unbounded (the
// coordinator applied the job limit); the jobs take slot admission and the
// Executor. onProgress observes each completion serially, Progress.Index
// being the position in cells. The caller owns the deadline via ctx. A
// recipe that does not decode or plan, or a cell list outside the plan, is
// a ValidationError.
func (s *Service) ExecuteRecipe(ctx context.Context, recipe []byte, cells []int, onProgress func(run.Progress)) (CacheStats, error) {
	p, err := cachedPlan(ctx, s, recipe, recipe, func(req *JobRequest) JobRequest { return *req }, 0)
	if err != nil {
		return CacheStats{}, err
	}
	if len(cells) == 0 || len(cells) > s.opt.MaxJobs {
		return CacheStats{}, invalidf("service: %d cells, want 1 to %d", len(cells), s.opt.MaxJobs)
	}
	jobs := make([]run.Job, len(cells))
	for i, c := range cells {
		if c < 0 || c >= len(p.Jobs) {
			return CacheStats{}, invalidf("service: cell %d out of range (request plans %d jobs)", c, len(p.Jobs))
		}
		jobs[i] = p.Jobs[c]
	}
	release, err := s.admit(ctx)
	if err != nil {
		return CacheStats{}, err
	}
	defer release()
	out, err := s.exec.Execute(ctx, &Plan{Jobs: jobs, Request: p.Request}, onProgress)
	return out.Cache, err
}
