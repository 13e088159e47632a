package service

import (
	"context"
	"io"

	"riscvmem/internal/obs"
	"riscvmem/internal/run"
	"riscvmem/internal/sweep"
)

// Plan is one validated request, ready to execute: its jobs in response
// order, plus the wire request they were derived from — an Executor that
// ships work elsewhere (the cluster coordinator) forwards the recipe, not
// the resolved Go values. Client requests set exactly one of Batch or
// Sweep; ExecuteJobs plans carry neither.
type Plan struct {
	Jobs  []run.Job
	Batch *BatchRequest
	Sweep *SweepRequest
	// grid is a sweep's expansion, kept to reassemble the base-relative
	// deltas from the positional results.
	grid *sweep.Plan
}

// BatchSpec returns the wire spec that batch job i's workload was resolved
// from: planBatch lays Jobs out with run.Cross, devices outermost.
func (p *Plan) BatchSpec(i int) *run.WorkloadSpec {
	return &p.Batch.Workloads[i%len(p.Batch.Workloads)]
}

// Executor runs a Plan's jobs. It is the one seam between the request
// facade (validation, timeouts, admission, async jobs, drain, encoding —
// everything in this package) and where simulation happens: in-process on
// the pooled run.Runner, or sharded over a fleet by cluster.Coordinator.
type Executor interface {
	// Execute returns the jobs' outcomes positionally (errs[i] is nil
	// exactly when results[i] is valid) with the cache work this call
	// caused. onProgress (optional) observes each completion serially, in
	// completion order. A non-nil error means the plan could not be
	// executed at all; per-job failures belong in errs.
	Execute(ctx context.Context, p *Plan, onProgress func(run.Progress)) (results []run.Result, errs []error, cache CacheStats, err error)
	// WriteMetrics renders the executor's own series in Prometheus text
	// exposition format; the service's /metrics page leads with them.
	WriteMetrics(w io.Writer) error
}

// localExecutor is the in-process Executor: one memoized, pooled runner
// shared by every request, so identical cells simulate exactly once.
type localExecutor struct {
	runner  *run.Runner
	kernels *obs.Histogram // per-kernel job-duration histograms, for /metrics
}

func (e *localExecutor) Execute(ctx context.Context, p *Plan, onProgress func(run.Progress)) ([]run.Result, []error, CacheStats, error) {
	hits0, misses0 := e.runner.CacheStats()
	tiers0 := e.runner.TierStats()
	// Every job completion — batch, sweep, async, cluster assignment —
	// feeds the kernel histograms exactly once.
	results, errs := e.runner.RunAllWithProgress(ctx, p.Jobs, func(pr run.Progress) {
		if pr.Job.Workload != nil {
			e.kernels.Observe(kernelLabel(pr.Job.Workload.Name()), pr.Elapsed)
		}
		if onProgress != nil {
			onProgress(pr)
		}
	})
	hits, misses := e.runner.CacheStats()
	tiers := e.runner.TierStats()
	return results, errs, CacheStats{
		Hits: hits, Misses: misses,
		RequestHits: hits - hits0, RequestMisses: misses - misses0,
		Tiers: tiers, RequestTiers: tiers.Sub(tiers0),
	}, nil
}
