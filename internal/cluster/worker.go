package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"riscvmem/internal/cluster/protocol"
	"riscvmem/internal/obs"
	"riscvmem/internal/run"
	"riscvmem/internal/service"
)

// WorkerOptions configures a worker agent.
type WorkerOptions struct {
	// ID is the identity cells are routed by; required. A stable ID across
	// restarts keeps the worker's shard assignment — and with it, its warm
	// disk cache — intact.
	ID string
	// Addr is the worker's own service address, informational only.
	Addr string
	// Service executes the assigned cells; required. Everything the
	// standalone daemon does per request — admission, pooling, the tiered
	// memo store, drain — applies to assignments unchanged.
	Service *service.Service
	// API is the coordinator: the Coordinator itself in-process, a Client
	// over HTTP. Required.
	API API
	// MaxConcurrent bounds assignments executing at once; each one takes a
	// service admission slot. 0 → 2.
	MaxConcurrent int
	// PollWait is the long-poll hold time per Poll call. 0 → 30s.
	PollWait time.Duration
	// FlushRows is how many completed rows accumulate before a RowReturn
	// is sent mid-assignment (the final return always flushes the rest).
	// 0 → 16.
	FlushRows int
	// Logf receives operational log lines. Nil discards them.
	Logf func(format string, args ...any)
}

// Worker is the agent side of the control plane: it registers with the
// coordinator, heartbeats on the advertised interval, long-polls for cell
// assignments, executes them through its Service, and streams rows back.
// Run blocks until its context ends; cancelling the context is the
// worker's drain signal (announce departure, let the coordinator requeue
// anything unfinished).
type Worker struct {
	opt  WorkerOptions
	hbMS atomic.Int64 // advertised heartbeat interval, ms

	// Agent-side counters for /metrics (the worker's service metrics cover
	// execution; these cover the control-plane conversation).
	registrations    atomic.Uint64 // successful registrations (first join + rejoins)
	returnsAbandoned atomic.Uint64 // RowReturn calls given up after transport retries
	rowsAbandoned    atomic.Uint64 // rows those abandoned calls carried
	cellFailures     atomic.Uint64 // panics contained and attributed to cells
}

// WriteMetrics renders the worker agent's control-plane counters in
// Prometheus text exposition format; the worker's HTTP server appends this
// to its service /metrics page.
func (w *Worker) WriteMetrics(out io.Writer) error {
	var b strings.Builder
	obs.Counter(&b, "simd_cluster_worker_registrations_total",
		"Successful registrations with the coordinator (first join and rejoins).", w.registrations.Load())
	obs.Counter(&b, "simd_cluster_worker_returns_abandoned_total",
		"RowReturn calls abandoned after exhausting transport retries.", w.returnsAbandoned.Load())
	obs.Counter(&b, "simd_cluster_worker_rows_abandoned_total",
		"Rows carried by abandoned RowReturn calls (requeued by the coordinator at lease expiry).", w.rowsAbandoned.Load())
	obs.Counter(&b, "simd_cluster_worker_cell_failures_total",
		"Panics contained in assignment execution and reported as cell failures.", w.cellFailures.Load())
	_, err := io.WriteString(out, b.String())
	return err
}

// NewWorker builds a worker agent.
func NewWorker(opt WorkerOptions) (*Worker, error) {
	if opt.ID == "" {
		return nil, errors.New("cluster: worker needs an ID")
	}
	if opt.Service == nil {
		return nil, errors.New("cluster: worker needs a Service")
	}
	if opt.API == nil {
		return nil, errors.New("cluster: worker needs a coordinator API")
	}
	if opt.MaxConcurrent <= 0 {
		opt.MaxConcurrent = 2
	}
	if opt.PollWait <= 0 {
		opt.PollWait = 30 * time.Second
	}
	if opt.FlushRows <= 0 {
		opt.FlushRows = 16
	}
	return &Worker{opt: opt}, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.opt.Logf != nil {
		w.opt.Logf(format, args...)
	}
}

// Run is the worker's lifecycle: register, then heartbeat and poll until
// ctx ends, then announce drain and wait for in-flight assignments to
// unwind. Returns nil on a clean ctx-driven shutdown; the only error is a
// ctx that died before the first successful registration.
func (w *Worker) Run(ctx context.Context) error {
	if _, err := w.register(ctx); err != nil {
		return err
	}
	hbStop := make(chan struct{})
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		w.heartbeatLoop(ctx, hbStop)
	}()

	var wg sync.WaitGroup
	sem := make(chan struct{}, w.opt.MaxConcurrent)
	for ctx.Err() == nil {
		start := time.Now()
		resp, err := w.opt.API.Poll(ctx, protocol.PollRequest{
			WorkerID: w.opt.ID,
			WaitMS:   w.opt.PollWait.Milliseconds(),
		})
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			w.logf("cluster: worker %s: poll failed: %v", w.opt.ID, err)
			sleepCtx(ctx, 250*time.Millisecond)
			continue
		}
		if resp.Reregister {
			if _, err := w.register(ctx); err != nil {
				break
			}
			continue
		}
		if resp.Assignment == nil {
			// An instant empty answer (injected dispatch fault) must not
			// turn the poll loop into a spin; a normal empty answer already
			// waited out PollWait.
			if time.Since(start) < 5*time.Millisecond {
				sleepCtx(ctx, 5*time.Millisecond)
			}
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(a *protocol.Assignment) {
			defer wg.Done()
			defer func() { <-sem }()
			w.execute(ctx, a)
		}(resp.Assignment)
	}

	close(hbStop)
	hbDone.Wait()
	// Announce departure on a fresh context (ctx is dead) so unfinished
	// cells requeue immediately instead of waiting out the lease.
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if resp, err := w.opt.API.DrainWorker(dctx, protocol.DrainRequest{WorkerID: w.opt.ID}); err != nil {
		w.logf("cluster: worker %s: drain announce failed (lease will expire): %v", w.opt.ID, err)
	} else if resp.Requeued > 0 {
		w.logf("cluster: worker %s: drained, %d cell(s) requeued", w.opt.ID, resp.Requeued)
	}
	cancel()
	wg.Wait()
	return nil
}

// register announces the worker, retrying with full-jitter exponential
// backoff until it succeeds or ctx ends (the coordinator may simply not be
// up yet). Full jitter — sleep uniform in [0, backoff], double the cap —
// matters at fleet scale: after a coordinator restart every worker's
// heartbeat says Reregister at once, and a bare exponential would march
// them all back into the register endpoint in synchronized waves.
func (w *Worker) register(ctx context.Context) (protocol.RegisterResponse, error) {
	backoff := 100 * time.Millisecond
	for {
		resp, err := w.opt.API.Register(ctx, protocol.RegisterRequest{WorkerID: w.opt.ID, Addr: w.opt.Addr})
		if err == nil {
			w.hbMS.Store(resp.HeartbeatMS)
			w.registrations.Add(1)
			return resp, nil
		}
		if ctx.Err() != nil {
			return protocol.RegisterResponse{}, ctx.Err()
		}
		w.logf("cluster: worker %s: register failed, retrying: %v", w.opt.ID, err)
		sleepCtx(ctx, time.Duration(rand.Int64N(int64(backoff)+1)))
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// heartbeatLoop beats on the advertised interval until stopped. Failed
// beats are logged and retried on schedule — a blackholed control channel
// is exactly what the lease mechanism exists for; the worker's job is to
// keep trying, the coordinator's to decide it is lost.
func (w *Worker) heartbeatLoop(ctx context.Context, stop <-chan struct{}) {
	for {
		iv := time.Duration(w.hbMS.Load()) * time.Millisecond
		if iv <= 0 {
			iv = time.Second
		}
		timer := time.NewTimer(iv)
		select {
		case <-stop:
			timer.Stop()
			return
		case <-ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
		resp, err := w.opt.API.Heartbeat(ctx, protocol.HeartbeatRequest{WorkerID: w.opt.ID})
		if err != nil {
			w.logf("cluster: worker %s: heartbeat failed: %v", w.opt.ID, err)
			continue
		}
		if resp.Reregister {
			// The coordinator forgot us (restart, or it declared us lost);
			// rejoin — our in-flight assignments are already revoked, their
			// late returns will be rejected.
			if _, err := w.register(ctx); err != nil {
				return
			}
		}
	}
}

// execute runs one assignment: execute its cells' jobs through the
// Service, which plans the recipe, stream rows back in chunks, and close
// out with the assignment's cache delta. A Revoked ack cancels the rest of the
// assignment — nothing else it produces will be accepted. Execution is
// bounded by the assignment's propagated deadline (the response has already
// settled past it, so finishing would be wasted cycles), and a panic
// anywhere in the execution path is contained and reported as per-cell
// failure rows — attributed to the cells, not allowed to crash the worker
// and masquerade as a worker loss.
func (w *Worker) execute(ctx context.Context, a *protocol.Assignment) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// runCtx bounds execution at the dispatch's absolute deadline; ctx (the
	// flush guard) deliberately does not carry it — the final Done return
	// must still go out after the deadline so the coordinator can close the
	// assignment out instead of waiting for our lease to lapse.
	runCtx := ctx
	if a.DeadlineMS > 0 {
		var runCancel context.CancelFunc
		runCtx, runCancel = context.WithDeadline(ctx, time.UnixMilli(a.DeadlineMS))
		defer runCancel()
	}
	var (
		mu       sync.Mutex
		pending  []protocol.Row
		revoked  bool
		produced = make(map[int]bool, len(a.Cells)) // global row indexes resolved so far
	)
	flush := func(done bool, cache *protocol.CacheDelta) {
		if ctx.Err() != nil {
			// Dying (shutdown) or revoked: ship nothing. Rows from a
			// cancelled run may be poisoned with context errors, and a final
			// cache delta would double-count cells the coordinator is about
			// to requeue and re-execute elsewhere.
			return
		}
		mu.Lock()
		rows := pending
		pending = nil
		dead := revoked
		mu.Unlock()
		if dead || (len(rows) == 0 && !done) {
			return
		}
		ret := protocol.RowReturn{
			WorkerID: w.opt.ID, AssignmentID: a.ID,
			Rows: rows, Done: done, Cache: cache,
		}
		// Retry discipline: a Revoked ack is an answer — the coordinator
		// took our assignment away, retrying would just be rejected again —
		// so stop immediately; only transport errors are worth retrying, with
		// jittered backoff, and the abandonment after the last attempt is
		// counted and logged rather than silent: undelivered rows are not
		// lost work (the coordinator requeues the cells when our lease
		// lapses, or at drain), but an operator watching a flaky network
		// needs to see it happening.
		const maxReturnAttempts = 3
		for attempt := 1; ; attempt++ {
			ack, err := w.opt.API.ReturnRows(ctx, ret)
			if err == nil {
				if ack.Revoked {
					mu.Lock()
					revoked = true
					mu.Unlock()
					cancel()
				}
				return
			}
			if ctx.Err() != nil {
				return // shutting down; drain handles the requeue
			}
			if attempt >= maxReturnAttempts {
				w.returnsAbandoned.Add(1)
				w.rowsAbandoned.Add(uint64(len(rows)))
				w.logf("cluster: worker %s: abandoning %d row(s) for %s after %d attempts (coordinator will requeue at lease expiry): %v",
					w.opt.ID, len(rows), a.ID, attempt, err)
				return
			}
			backoff := time.Duration(attempt) * 50 * time.Millisecond
			sleepCtx(ctx, backoff/2+time.Duration(rand.Int64N(int64(backoff/2)+1)))
		}
	}
	// closeOut answers every cell without a row yet with msg, a Failed
	// row when failed, and closes the assignment out.
	closeOut := func(msg string, failed bool) {
		mu.Lock()
		for _, cell := range a.Cells {
			if !produced[cell.Index] {
				pending = append(pending, protocol.Row{Index: cell.Index, Error: msg, Failed: failed})
			}
		}
		mu.Unlock()
		flush(true, nil)
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// Contained cell failure: report every unresolved cell as Failed
		// so the coordinator charges the cells' budgets (and eventually
		// quarantines a poison cell) instead of this worker dying and the
		// loss being charged to nothing in particular.
		w.cellFailures.Add(1)
		w.logf("cluster: worker %s: assignment %s panicked: %v", w.opt.ID, a.ID, r)
		closeOut(fmt.Sprintf("cell failed on worker %s: panic: %v", w.opt.ID, r), true)
	}()

	// The assignment's cache delta is counted per job from the exact
	// Progress outcomes, not from the service's before/after counter deltas
	// — those are approximate when assignments overlap on one worker, and
	// the dispatch's cluster-wide stats must never count a cell twice.
	var cacheHits, cacheMisses atomic.Uint64
	onProgress := func(p run.Progress) {
		if runCtx.Err() != nil {
			// A cancelled or deadline-cut run reports its aborted jobs as
			// failed cells (context errors); none of that is real — the
			// coordinator requeues every unreturned cell for a live worker,
			// or has already settled the response with deadline rows.
			return
		}
		switch p.Cache {
		case run.CacheHit:
			cacheHits.Add(1)
		case run.CacheMiss:
			cacheMisses.Add(1)
		}
		row := protocol.Row{Index: a.Cells[p.Index].Index, Result: p.Result}
		if p.Err != nil {
			row.Error = p.Err.Error()
		}
		mu.Lock()
		produced[row.Index] = true
		pending = append(pending, row)
		n := len(pending)
		mu.Unlock()
		if n >= w.opt.FlushRows {
			flush(false, nil)
		}
	}

	cells := make([]int, len(a.Cells))
	for i, cell := range a.Cells {
		cells[i] = cell.Index
	}
	cache, err := w.opt.Service.ExecuteRecipe(runCtx, a.Request, cells, onProgress)
	if err != nil {
		var invalid *service.ValidationError
		if errors.As(err, &invalid) {
			// The coordinator planned the same request, so a recipe this
			// worker cannot decode or plan, or a cell outside it, is version
			// skew: an answer for every cell, not a cell failure.
			w.logf("cluster: worker %s: assignment %s unresolvable: %v", w.opt.ID, a.ID, err)
			closeOut(err.Error(), false)
			return
		}
		if ctx.Err() != nil {
			return // shutdown or revocation: the coordinator requeues
		}
		if runCtx.Err() != nil {
			// The dispatch deadline cut the run short: the response has
			// already settled with deadline rows for whatever we did not
			// finish. Close the assignment out empty so the coordinator
			// drops it now rather than at lease expiry.
			w.logf("cluster: worker %s: assignment %s abandoned at dispatch deadline", w.opt.ID, a.ID)
			flush(true, nil)
			return
		}
		// Worker-local refusal (admission, local drain): close the
		// assignment out with whatever completed; the coordinator requeues
		// the rest. The pause keeps a persistently refusing worker from
		// requeue-spinning against its own shard.
		w.logf("cluster: worker %s: assignment %s refused: %v", w.opt.ID, a.ID, err)
		sleepCtx(ctx, 250*time.Millisecond)
		flush(true, nil)
		return
	}
	flush(true, &protocol.CacheDelta{
		Hits:   cacheHits.Load(),
		Misses: cacheMisses.Load(),
		// Tier counters have no per-job attribution; the request-scoped
		// delta is exact for serial assignments and approximate when
		// assignments overlap on this worker (the service documents the
		// same caveat for overlapping requests).
		Tiers: cache.RequestTiers,
	})
}

// sleepCtx sleeps for d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}
