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

// Outcome is an executed Plan: the jobs' outcomes positionally (Errs[i] is
// nil exactly when Results[i] is valid) with the cache work the execution
// caused.
type Outcome struct {
	Results []run.Result
	Errs    []error
	// JSON[i], when set, is json.Marshal(Results[i]) as the memo store
	// holds it (run.Progress.JSON); the reply writer splices it instead of
	// encoding the row again. An Executor without stored rows leaves it nil.
	JSON  [][]byte
	Cache CacheStats
}

// Executor runs a Plan's jobs. It is the one seam between the request
// facade (validation, timeouts, admission, async jobs, drain, encoding —
// everything in this package) and where simulation happens: in-process on
// the pooled run.Runner, or sharded over a fleet by cluster.Coordinator.
type Executor interface {
	// Execute runs the plan's jobs. onProgress (optional) observes each
	// completion serially, in completion order. A non-nil error means the
	// plan could not be executed at all; per-job failures belong in
	// Outcome.Errs.
	Execute(ctx context.Context, p *Plan, onProgress func(run.Progress)) (Outcome, error)
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

func (e *localExecutor) Execute(ctx context.Context, p *Plan, onProgress func(run.Progress)) (Outcome, error) {
	hits0, misses0 := e.runner.CacheStats()
	tiers0 := e.runner.TierStats()
	js := make([][]byte, len(p.Jobs))
	// Every job completion — batch, sweep, async, cluster assignment —
	// feeds the kernel histograms exactly once.
	results, errs := e.runner.RunAllWithProgress(ctx, p.Jobs, func(pr run.Progress) {
		js[pr.Index] = pr.JSON
		if pr.Job.Workload != nil {
			e.kernels.Observe(kernelLabel(pr.Job.Workload.Name()), pr.Elapsed)
		}
		if onProgress != nil {
			onProgress(pr)
		}
	})
	hits, misses := e.runner.CacheStats()
	tiers := e.runner.TierStats()
	return Outcome{Results: results, Errs: errs, JSON: js, Cache: CacheStats{
		Hits: hits, Misses: misses,
		RequestHits: hits - hits0, RequestMisses: misses - misses0,
		Tiers: tiers, RequestTiers: tiers.Sub(tiers0),
	}}, nil
}
