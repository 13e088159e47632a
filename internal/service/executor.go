package service

import (
	"context"
	"io"

	"riscvmem/internal/obs"
	"riscvmem/internal/run"
	"riscvmem/internal/sweep"
)

// Plan is one validated request, ready to execute: its jobs in response
// order, plus the request they were planned from (PlanRequest). Planning
// is a pure function of the request, so an Executor that ships work
// elsewhere — the cluster coordinator — forwards the Request as a recipe
// and each job as its index, never the resolved Go values. A cluster
// worker executes a plan of only the jobs its cells index
// (ExecuteRecipe).
type Plan struct {
	Jobs    []run.Job
	Request JobRequest
	// grid is a sweep's expansion, kept to reassemble the base-relative
	// deltas from the positional results.
	grid *sweep.Plan
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
// the pooled run.Runner, or sharded over a fleet by cluster.Coordinator,
// whose workers plan the Plan's Request with PlanRequest and run the jobs
// their cells index (ExecuteRecipe).
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
