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
// path: plan (validate into a job list) → timeout → admit → Executor →
// assemble.
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
	// Runner executes every request's jobs; nil builds a fresh memoized
	// runner. Passing one lets a Service share its cache with in-process
	// callers (e.g. a suite warming the cache the daemon then serves from).
	Runner *run.Runner
	// Parallelism is forwarded to the Runner built when Runner is nil;
	// 0 defaults to the host CPU count.
	Parallelism int
	// Store is the tiered memo store forwarded to the Runner built when
	// Runner is nil — run.OpenStore builds one with a persistent disk tier
	// so a restarted daemon serves previously computed results without
	// re-simulating. Nil gets the runner's default bounded in-memory store.
	// Ignored when Runner is set (the runner already owns its store).
	Store memostore.Store
	// Executor replaces the local runner as the place admitted plans run;
	// nil executes in-process on the Runner above. cluster.New passes the
	// coordinator, which then serves this whole facade fleet-wide; Runner,
	// Parallelism and Store are unused with it.
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
		s.runner = opt.Runner
		if s.runner == nil {
			s.runner = run.New(run.Options{Parallelism: opt.Parallelism, Store: opt.Store})
		}
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

// Batch executes a device × workload cross-product. Request-shaped
// problems — unknown devices or kernels, malformed specs, no workloads, an
// oversized cross-product (all ValidationError), admission overload — fail
// the call; per-job simulation failures land in the Response rows instead,
// so one bad cell does not void the rest of the request.
func (s *Service) Batch(ctx context.Context, req BatchRequest) (*Response, error) {
	if err := s.checkAdmittable(ctx); err != nil {
		return nil, err
	}
	p, err := s.planBatch(req)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, p, req.Options)
}

// Sweep executes a device-parameter ablation. The axis grammar and
// semantics are exactly cmd/sweep's; every cell row carries its axis
// labels and base-relative deltas.
func (s *Service) Sweep(ctx context.Context, req SweepRequest) (*Response, error) {
	if err := s.checkAdmittable(ctx); err != nil {
		return nil, err
	}
	p, err := PlanSweep(req, s.opt.MaxJobs)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, p, req.Options)
}

// planBatch validates a BatchRequest into its Plan; every failure is a
// ValidationError.
func (s *Service) planBatch(req BatchRequest) (*Plan, error) {
	devices := machine.All() // an empty Devices list means all presets
	if len(req.Devices) > 0 {
		devices = make([]machine.Spec, len(req.Devices))
		for i, name := range req.Devices {
			spec, err := machine.ByName(name)
			if err != nil {
				return nil, invalid(err)
			}
			devices[i] = spec
		}
	}
	workloads, err := resolveWorkloads(req.Workloads)
	if err != nil {
		return nil, invalid(err)
	}
	if n := len(devices) * len(workloads); n > s.opt.MaxJobs {
		return nil, invalidf("service: request is %d jobs, limit %d", n, s.opt.MaxJobs)
	}
	return &Plan{Jobs: run.Cross(devices, workloads), Batch: &req}, nil
}

// PlanSweep validates a SweepRequest into its Plan; every failure is a
// ValidationError. maxJobs > 0 bounds the grid before it is expanded (see
// sweep.NewPlan). Exported for cluster workers, which re-derive the grid
// the coordinator already bounded — passing 0 — to resolve their assigned
// job indexes against the same job list.
func PlanSweep(req SweepRequest, maxJobs int) (*Plan, error) {
	if req.Device == "" {
		return nil, invalidf("service: sweep request names no device")
	}
	base, err := machine.ByName(req.Device)
	if err != nil {
		return nil, invalid(err)
	}
	axes, err := sweep.ParseAxes(req.Axes)
	if err != nil {
		return nil, invalid(err)
	}
	workloads, err := resolveWorkloads(req.Workloads)
	if err != nil {
		return nil, invalid(err)
	}
	grid, err := sweep.NewPlan(base, axes, workloads, maxJobs)
	if err != nil {
		return nil, invalid(err)
	}
	return &Plan{Jobs: grid.Jobs, Sweep: &req, grid: grid}, nil
}

// run takes a planned request through the rest of the synchronous path.
// The timeout is applied before admission: a request waits in the queue at
// most up to its own deadline.
func (s *Service) run(ctx context.Context, p *Plan, opt RequestOptions) (*Response, error) {
	ctx, cancel := s.timeoutCtx(ctx, opt)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return s.execute(ctx, p, nil)
}

// execute hands a plan to the Executor inside an already-admitted slot and
// assembles the Response. onProgress (optional) observes each completion
// with the raw result — the async job path streams rows through it; a
// sweep's base-relative deltas need the full grid and arrive with the
// final Response.
func (s *Service) execute(ctx context.Context, p *Plan, onProgress func(run.Progress)) (*Response, error) {
	results, errs, cache, err := s.exec.Execute(ctx, p, onProgress)
	if err != nil {
		return nil, err
	}
	if p.grid == nil {
		return assembleBatch(results, errs, cache), nil
	}
	res, err := p.grid.Assemble(results, errs)
	if err != nil {
		// The request validated (device, axes and workloads all resolved,
		// the grid expanded), so this is an execution failure.
		return nil, &ExecutionError{Err: err}
	}
	resp := &Response{Results: make([]ResultRow, len(res.PerCell)), Cache: cache}
	for i, cr := range res.PerCell {
		resp.Results[i] = ResultRow{
			Result:          cr.Result,
			Cell:            cr.Cell.Labels,
			Speedup:         cr.Speedup,
			BandwidthVsBase: cr.BandwidthVsBase,
		}
	}
	return resp, nil
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

// ExecuteJobs runs an explicit, already-validated job list through the
// service's admission and execution machinery. It is the cluster worker
// agent's entry point: the coordinator validated the request and chose the
// cells; the worker executes its share with full facade semantics — drain
// refusal, slot admission, the shared runner's pooling/memoization/
// singleflight, per-request cache deltas. onProgress observes each
// completion (serially, in completion order). No request timeout is
// applied here: the caller owns the deadline via ctx — in the cluster, the
// coordinator holds the client's deadline and revokes the assignment.
//
// Request-shaped failures (draining, overload, empty or oversized job
// list) fail the call; per-job failures land in the Response rows, exactly
// as in Batch.
func (s *Service) ExecuteJobs(ctx context.Context, jobs []run.Job, onProgress func(run.Progress)) (*Response, error) {
	if err := s.checkAdmittable(ctx); err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, invalidf("service: empty job list")
	}
	if len(jobs) > s.opt.MaxJobs {
		return nil, invalidf("service: request is %d jobs, limit %d", len(jobs), s.opt.MaxJobs)
	}
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return s.execute(ctx, &Plan{Jobs: jobs}, onProgress)
}
