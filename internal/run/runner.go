package run

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"riscvmem/internal/faultinject"
	"riscvmem/internal/machine"
	"riscvmem/internal/memostore"
	"riscvmem/internal/sim"
)

// Job pairs a device with a workload: one cell of an evaluation
// cross-product.
type Job struct {
	Device   machine.Spec
	Workload Workload
}

// Progress reports one completed job of a batch. Done counts completions so
// far (including this one); Index is the job's position in the submitted
// slice. Exactly one of Result/Err is meaningful. Elapsed is the host
// wall-clock time the job took (including cache lookups — a memoized job
// reports microseconds); it is observability data and never part of the
// simulated Result.
type Progress struct {
	Done, Total int
	Index       int
	Job         Job
	Result      Result
	Err         error
	Elapsed     time.Duration
	// Cache is the job's memoization outcome, mirroring the CacheStats
	// counters per job: CacheHit for a result served without a new
	// simulation (store tier or joined flight), CacheMiss for a simulation
	// actually executed for a keyed job, CacheNone for unkeyed or
	// cache-disabled jobs and for jobs that ended before reaching the
	// cache. Exact per job even when batches overlap on a shared Runner —
	// which the aggregate before/after counter deltas are not.
	Cache CacheOutcome
}

// CacheOutcome classifies one job's interaction with the memo cache.
type CacheOutcome uint8

const (
	// CacheNone: the job was unkeyed, caching was disabled, or the job
	// failed before the cache was consulted.
	CacheNone CacheOutcome = iota
	// CacheHit: the result was served without a new simulation.
	CacheHit
	// CacheMiss: a simulation was executed for this keyed job.
	CacheMiss
)

// Options configures a Runner.
type Options struct {
	// Parallelism is the number of host worker goroutines a batch uses;
	// 0 defaults to the host CPU count. Simulated results are bit-identical
	// at every setting — parallelism only changes wall-clock time.
	Parallelism int
	// OnProgress, when set, is called serially (never concurrently) after
	// each job of a batch completes.
	OnProgress func(Progress)
	// DisableCache turns off result memoization for Keyed workloads; every
	// job then simulates, as in a fresh Runner. Cacheless runs are still
	// bit-identical to cached ones — the cache only skips work.
	DisableCache bool
	// Store is the tiered memo store completed Results live in (see
	// internal/memostore): a bounded in-memory LRU, optionally over an
	// on-disk tier that survives restarts (run.OpenStore builds the
	// standard composition). Nil selects a memory-only store with the
	// default capacity — the pre-persistence behavior, now bounded.
	Store memostore.Store
}

// Runner executes jobs on a pool of reusable machines. Machines are keyed
// by the device's full parameter identity (machine.Spec.Identity) and
// restored with Machine.Reset between jobs instead of being re-constructed,
// so a batch pays at most Parallelism constructions per distinct device —
// and a modified spec never shares pooled machines with its base, even
// when the Name was left unchanged (see Identity's prefetcher-factory
// caveat).
//
// On top of pooling, the Runner memoizes Results for workloads that opt in
// through the Keyed interface: completed Results live in a tiered memo
// store (Options.Store) keyed by (CacheVersion, device identity encoding,
// workload cache key) and are deduplicated in flight, so an identical cell
// — within one batch, across batches, across overlapping sweeps, and (with
// a disk-backed store) across process restarts — simulates exactly once.
// The simulator is deterministic (pinned by the oracle tests), so a cached
// Result is bit-identical to a re-simulation, whichever tier serves it.
//
// A Runner is safe for concurrent use; the zero value is not valid, use New.
type Runner struct {
	opt   Options
	store memostore.Store
	mu    sync.Mutex // guards pool
	pool  map[any][]*sim.Machine

	// flights holds only the cells currently simulating (singleflight): the
	// first job to claim a key simulates, identical jobs arriving meanwhile
	// wait and share the outcome; a completed flight's Result moves to the
	// store and the flight is removed. Sharded by a hash of the cell key so
	// large parallel batches of distinct cells stop serializing on one
	// mutex. Counters are atomics for the same reason — a cache hit must
	// not take the runner lock just to count itself.
	flights [cacheShards]flightShard
	seed    maphash.Seed
	// devKeys memoizes machine.Spec.IdentityString per device identity: the
	// canonical encoding is a ~hundred-field rendering, computed once per
	// distinct device per process instead of once per job.
	devKeys   sync.Map      // Spec.Identity() -> devKey
	hits      atomic.Uint64 // results served without a new simulation
	misses    atomic.Uint64 // simulations actually executed for keyed jobs
	abandoned atomic.Uint64 // runs left behind by an expired job context
}

// devKey is the cached device coordinate of a cell key.
type devKey struct {
	id       string
	volatile bool
}

// cacheShards is the in-flight map's shard count; a power of two.
const cacheShards = 16

// abandonGrace is how long a cancelled job waits for its workload to
// return on its own before the run is abandoned (and its machine
// poisoned). Long enough for a cooperative workload to observe ctx.Done
// and unwind; short enough that a context-deaf stall cannot hold a batch
// hostage.
const abandonGrace = 2 * time.Millisecond

type flightShard struct {
	mu sync.Mutex
	m  map[memostore.Key]*flight
}

// shard picks the in-flight shard for a cell. Both identity coordinates
// feed the hash: sweep batches are many device cells × few workloads,
// suite batches are few devices × many workloads — hashing either alone
// would collapse one of those shapes onto a single shard.
func (r *Runner) shard(key memostore.Key) *flightShard {
	h := maphash.String(r.seed, key.Workload) ^ maphash.String(r.seed, key.Device)
	return &r.flights[h&(cacheShards-1)]
}

// cellKey builds the store key for one keyed job, memoizing the device
// coordinate (a large canonical rendering) per device identity.
func (r *Runner) cellKey(devID any, spec machine.Spec, workloadKey string) memostore.Key {
	var dk devKey
	if cached, ok := r.devKeys.Load(devID); ok {
		dk = cached.(devKey)
	} else {
		id, persistable := spec.IdentityString()
		dk = devKey{id: id, volatile: !persistable}
		r.devKeys.Store(devID, dk)
	}
	return memostore.Key{
		Version:  CacheVersion,
		Device:   dk.id,
		Workload: workloadKey,
		Volatile: dk.volatile,
	}
}

// flight is one singleflight cache slot: the first job to claim a key
// simulates and closes done; identical jobs arriving meanwhile (or later)
// wait on done and share the result.
type flight struct {
	done chan struct{}
	res  Result
	err  error
}

// New builds a Runner.
func New(opt Options) *Runner {
	r := &Runner{
		opt:   opt,
		store: opt.Store,
		pool:  map[any][]*sim.Machine{},
		seed:  maphash.MakeSeed(),
	}
	if r.store == nil {
		r.store = memostore.NewMemory(0)
	}
	for i := range r.flights {
		r.flights[i].m = map[memostore.Key]*flight{}
	}
	return r
}

// CacheStats reports the memoization counters: hits is the number of keyed
// jobs served from the cache (including jobs that joined an in-flight
// simulation), misses the number of simulations actually executed for keyed
// jobs. Unkeyed jobs appear in neither.
func (r *Runner) CacheStats() (hits, misses uint64) {
	return r.hits.Load(), r.misses.Load()
}

// TierStats reports the memo store's per-tier counters (memory LRU and,
// when configured, the on-disk tier). Jobs that joined an in-flight
// simulation appear in CacheStats hits but in no tier — they never reached
// the store.
func (r *Runner) TierStats() memostore.Stats { return r.store.Stats() }

// Store exposes the runner's memo store (for sharing it, snapshotting its
// disk tier, or reading tier stats from another layer).
func (r *Runner) Store() memostore.Store { return r.store }

// Abandoned reports how many workload runs were left behind by an expired
// or cancelled job context (see simulate). Each one may pin a goroutine
// until its workload returns; the count is the observability hook for leak
// assertions and daemon metrics.
func (r *Runner) Abandoned() uint64 { return r.abandoned.Load() }

// PoolSize reports the idle machines currently pooled across all device
// identities. The chaos suite uses it to pin the poisoning invariant:
// machines whose workload panicked or was abandoned never come back.
func (r *Runner) PoolSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ms := range r.pool {
		n += len(ms)
	}
	return n
}

// acquire pops an idle machine for the device identity, resetting it to
// power-on, or constructs one when the pool is empty.
func (r *Runner) acquire(spec machine.Spec, key any) (*sim.Machine, error) {
	if err := faultinject.Fire(faultinject.RunnerAcquire); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if ms := r.pool[key]; len(ms) > 0 {
		m := ms[len(ms)-1]
		r.pool[key] = ms[:len(ms)-1]
		r.mu.Unlock()
		m.Reset()
		return m, nil
	}
	r.mu.Unlock()
	return sim.New(spec)
}

// release returns a machine to the pool, keyed by its memoized identity.
func (r *Runner) release(m *sim.Machine) {
	key := m.Identity()
	r.mu.Lock()
	r.pool[key] = append(r.pool[key], m)
	r.mu.Unlock()
}

// runJob executes one job, serving it from the memoization cache when the
// workload is Keyed (and caching enabled) and simulating it on a pooled
// machine otherwise. The returned CacheOutcome mirrors, per job, exactly
// what the hits/misses counters recorded for it.
func (r *Runner) runJob(ctx context.Context, job Job) (Result, CacheOutcome, error) {
	if job.Workload == nil {
		return Result{}, CacheNone, errors.New("run: job with nil workload")
	}
	if err := ctx.Err(); err != nil {
		return Result{}, CacheNone, err
	}
	devID := job.Device.Identity() // computed once per job: keys both cache and pool
	kw, keyed := job.Workload.(Keyed)
	if !keyed || r.opt.DisableCache {
		res, err := r.simulate(ctx, job, devID)
		return res, CacheNone, err
	}
	key := r.cellKey(devID, job.Device, kw.CacheKey())
	sh := r.shard(key)
	for {
		sh.mu.Lock()
		if f, ok := sh.m[key]; ok {
			sh.mu.Unlock()
			select {
			case <-f.done:
				if f.err != nil && ctx.Err() == nil &&
					(errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
					// The leader's batch was cancelled but ours was not
					// (the Runner may be shared across batches); its
					// cancellation must not fail our job. The failed
					// flight was already removed, so loop and retry —
					// becoming the leader or joining a fresh flight.
					continue
				}
				// Count the hit only when the joined flight's outcome is
				// actually served — not on joins that end in a retry or in
				// this job's own cancellation.
				r.hits.Add(1)
				return f.res, CacheHit, f.err
			case <-ctx.Done():
				return Result{}, CacheNone, ctx.Err()
			}
		}
		// The store lookup happens under the shard lock, after the flight
		// check: a leader publishes its Result to the store BEFORE removing
		// its flight, so a racer always finds the cell in one of the two.
		if v, _, ok := r.store.Get(key); ok {
			if res, isResult := v.(Result); isResult {
				sh.mu.Unlock()
				r.hits.Add(1)
				return res, CacheHit, nil
			}
			// A store serving a foreign type (misconfigured codec) is
			// treated as a miss: correctness over reuse.
		}
		f := &flight{done: make(chan struct{})}
		sh.m[key] = f
		r.misses.Add(1)
		sh.mu.Unlock()
		f.res, f.err = r.simulate(ctx, job, devID)
		if f.err == nil {
			// Publish before the flight is removed (see above). Errors are
			// never stored: a later identical job retries.
			r.store.Put(key, f.res)
		}
		sh.mu.Lock()
		delete(sh.m, key)
		sh.mu.Unlock()
		// Removal precedes close so retrying waiters never re-join this
		// flight; jobs already waiting share the outcome either way.
		close(f.done)
		return f.res, CacheMiss, f.err
	}
}

// simOutcome is one finished (or aborted) workload execution.
type simOutcome struct {
	res      Result
	panicked bool
	err      error
}

// simulate executes one job on a pooled machine, honoring the job context:
// the workload runs on its own goroutine and simulate returns the moment
// ctx ends, even when the workload ignores cancellation. An abandoned run's
// machine is poisoned — the workload may still be mutating it — so it is
// never re-pooled; the stray goroutine drops it for the GC when the
// workload finally returns. (Go cannot preempt the computation itself: a
// workload that stalls forever pins one goroutine until process exit — see
// the fault taxonomy in DESIGN.md §9.)
func (r *Runner) simulate(ctx context.Context, job Job, devID any) (Result, error) {
	m, err := r.acquire(job.Device, devID)
	if err != nil {
		return Result{}, fmt.Errorf("%s on %s: %w", job.Workload.Name(), job.Device.Name, err)
	}
	outc := make(chan simOutcome, 1) // buffered: an abandoned run must not block on send
	go func() {
		var out simOutcome
		out.res, out.panicked, out.err = runWorkload(ctx, job.Workload, m)
		outc <- out
	}()
	var out simOutcome
	select {
	case out = <-outc:
	case <-ctx.Done():
		// Give a cooperative workload a moment to deliver its own
		// cancellation outcome — then its machine stays poolable. Only a
		// workload that truly ignores cancellation is abandoned.
		grace := time.NewTimer(abandonGrace)
		select {
		case out = <-outc:
			grace.Stop()
		case <-grace.C:
			r.abandoned.Add(1)
			return Result{}, fmt.Errorf("%s on %s: abandoned: %w",
				job.Workload.Name(), job.Device.Name, ctx.Err())
		}
	}
	if out.panicked {
		// The panic may have fired mid-update deep inside the simulator,
		// leaving the machine in an arbitrary partial state; discard it
		// rather than re-pool it. The panic itself becomes a per-job error
		// so the rest of the batch survives.
		return Result{}, fmt.Errorf("%s on %s: %w", job.Workload.Name(), job.Device.Name, out.err)
	}
	res, err := out.res, out.err
	if err == nil && res.Mem == (sim.Summary{}) {
		// Custom workloads rarely snapshot the counters themselves; the
		// runner owns the machine, so fill them in (a no-op for runs with
		// genuinely zero memory activity).
		res.Mem = m.Stats()
	}
	r.release(m)
	if err != nil {
		return Result{}, fmt.Errorf("%s on %s: %w", job.Workload.Name(), job.Device.Name, err)
	}
	if res.Workload == "" {
		res.Workload = job.Workload.Name()
	}
	if res.Device == "" {
		res.Device = job.Device.Name
	}
	return res, nil
}

// runWorkload invokes the workload, converting a panic into an error (with
// the panicking goroutine's stack) instead of killing the worker goroutine —
// and with it the whole process — mid-batch.
func runWorkload(ctx context.Context, w Workload, m *sim.Machine) (res Result, panicked bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, panicked = Result{}, true
			err = fmt.Errorf("workload panicked: %v\n%s", p, debug.Stack())
		}
	}()
	res, err = w.Run(ctx, m)
	return res, false, err
}

// Run executes the batch and returns one Result per job, in job order —
// results[i] always belongs to jobs[i], regardless of host scheduling. Jobs
// are independent (each runs on its own fresh-or-reset machine), so the
// simulated outcome of every job is identical to running it alone.
//
// All jobs are attempted; per-job failures are collected and returned
// joined, in job order, alongside the successful results. Cancelling ctx
// makes the remaining jobs fail with the context's error — reported as one
// collapsed error carrying the skipped-job count, not one line per
// remaining job (a cancelled 10k-job batch is 10k identical errors
// otherwise). Per-job errors stay individually visible through OnProgress
// and through RunAll.
func (r *Runner) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	results, errs := r.RunAll(ctx, jobs)
	return results, JoinErrors(errs)
}

// RunWithProgress is Run with a per-call progress hook (see
// RunAllWithProgress).
func (r *Runner) RunWithProgress(ctx context.Context, jobs []Job, onProgress func(Progress)) ([]Result, error) {
	results, errs := r.RunAllWithProgress(ctx, jobs, onProgress)
	return results, JoinErrors(errs)
}

// RunAll is Run with per-job error visibility: errs[i] is nil exactly when
// results[i] is valid; a failed job's slot carries only its Workload and
// Device names. Transports that report job outcomes individually
// (the service layer) use this; Run wraps it with the joined-error
// convention for in-process callers.
func (r *Runner) RunAll(ctx context.Context, jobs []Job) (results []Result, errs []error) {
	return r.RunAllWithProgress(ctx, jobs, nil)
}

// RunAllWithProgress is RunAll with a per-call progress hook, for callers
// that need batch-scoped progress on a shared Runner (the service's async
// job store streams rows through it). A nil onProgress falls back to the
// Runner-level Options.OnProgress; like it, the hook is called serially, in
// completion order.
func (r *Runner) RunAllWithProgress(ctx context.Context, jobs []Job, onProgress func(Progress)) (results []Result, errs []error) {
	results = make([]Result, len(jobs))
	errs = make([]error, len(jobs))

	workers := r.opt.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	if onProgress == nil {
		onProgress = r.opt.OnProgress
	}
	var progressMu sync.Mutex
	done := 0
	report := func(i int, elapsed time.Duration, cache CacheOutcome) {
		if onProgress == nil {
			return
		}
		progressMu.Lock()
		done++
		onProgress(Progress{
			Done: done, Total: len(jobs), Index: i,
			Job: jobs[i], Result: results[i], Err: errs[i],
			Elapsed: elapsed, Cache: cache,
		})
		progressMu.Unlock()
	}
	// Host wall-clock per job, for Progress.Elapsed only: observability
	// data (the service's kernel histograms), never simulated state.
	timeJob := func(i int) {
		start := time.Now() //simlint:allow determinism -- host-side timing feeds Progress.Elapsed (observability), never the simulated Result
		var cache CacheOutcome
		results[i], cache, errs[i] = r.runJob(ctx, jobs[i])
		if errs[i] != nil && jobs[i].Workload != nil {
			// A failed job has no measurement; its slot (and its Progress)
			// still names the cell, so every consumer reporting per-job
			// outcomes — response rows, async job rows, cluster rows —
			// identifies it without re-deriving the names.
			results[i] = Result{Workload: jobs[i].Workload.Name(), Device: jobs[i].Device.Name}
		}
		report(i, time.Since(start), cache) //simlint:allow determinism -- same: host-side observability timing
	}

	if workers <= 1 {
		for i := range jobs {
			timeJob(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					timeJob(i)
				}
			}()
		}
		for i := range jobs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	return results, errs
}

// JoinErrors joins per-job errors in job order, collapsing the
// context-cancellation tail — every job that failed only because the batch
// context ended — into one error with a skipped-job count. errors.Is still
// matches context.Canceled / DeadlineExceeded on the joined error.
//
// Only the bare context sentinels are collapsed: those are exactly what
// runJob returns for jobs it skipped without executing. A workload that ran
// and failed with an error merely wrapping a context error (say, its own
// internal timeout) keeps its individually identified entry.
func JoinErrors(errs []error) error {
	var kept []error
	var ctxErr error
	skipped := 0
	for _, err := range errs {
		switch {
		case err == nil:
		//simlint:allow ctxerr -- identity is the semantics: only the BARE sentinels runJob returns for skipped jobs collapse; wrapped context errors must keep their entries
		case err == context.Canceled || err == context.DeadlineExceeded:
			if ctxErr == nil {
				ctxErr = err
			}
			skipped++
		default:
			kept = append(kept, err)
		}
	}
	switch {
	case skipped == 1:
		kept = append(kept, ctxErr)
	case skipped > 1:
		kept = append(kept, fmt.Errorf("%d jobs skipped: %w", skipped, ctxErr))
	}
	return errors.Join(kept...)
}

// RunOne executes a single workload on a single device through the pool.
func (r *Runner) RunOne(ctx context.Context, d machine.Spec, w Workload) (Result, error) {
	res, _, err := r.runJob(ctx, Job{Device: d, Workload: w})
	return res, err
}
