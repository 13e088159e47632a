// Package cluster is the distributed control plane over the simulation
// service: a Coordinator that shards client requests across registered
// worker agents, and a Worker that executes its share through an ordinary
// service.Service. It is how one `simd` process becomes a fleet.
//
// The division of labor is strict. The coordinator never simulates and
// carries no request plumbing of its own: it is a service.Executor. Clients
// talk to an ordinary service.Service built over it — the standalone
// daemon's validation, timeouts, admission, async jobs, drain and encoding,
// unchanged — and every admitted plan arrives at Execute, which routes each
// cell to a worker by rendezvous hashing (route.go) of (device
// IdentityString, workload CacheKey) — the persistent memo store's own
// coordinates, so identical cells always land on the same worker and are
// deduplicated cluster-wide by that worker's singleflight and warm memo
// tiers — and hands the returned rows back in job order. Workers own all
// execution state (machine pool, memo store, their own admission and
// drain), reusing internal/service unchanged.
//
// Liveness is lease-based: workers heartbeat on the interval the
// coordinator advertises at registration, and a worker silent past its
// lease is marked lost — its unfinished cells are requeued onto the
// survivors and its late row returns are revoked, so every response
// row is delivered exactly once even across worker loss. A draining worker
// (SIGTERM) announces itself and gets the same requeue, just politely.
//
// Because the simulator is deterministic and rows are reassembled in job
// order, a clustered response is bit-identical to the standalone service's
// response for the same request — pinned by this package's oracle test
// over the full kernel × device cross-product, including a worker killed
// mid-sweep.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"riscvmem/internal/cluster/protocol"
	"riscvmem/internal/faultinject"
	"riscvmem/internal/machine"
	"riscvmem/internal/memostore"
	"riscvmem/internal/run"
	"riscvmem/internal/service"
)

// API is the coordinator surface a worker speaks — the protocol's five
// messages. Coordinator implements it directly (in-process clusters,
// tests, benchmarks); Client implements it over HTTP (real deployments).
// Both bindings carry exactly the same JSON-shaped values, so a worker
// cannot tell them apart.
type API interface {
	Register(ctx context.Context, req protocol.RegisterRequest) (protocol.RegisterResponse, error)
	Heartbeat(ctx context.Context, req protocol.HeartbeatRequest) (protocol.HeartbeatResponse, error)
	Poll(ctx context.Context, req protocol.PollRequest) (protocol.PollResponse, error)
	ReturnRows(ctx context.Context, req protocol.RowReturn) (protocol.RowAck, error)
	DrainWorker(ctx context.Context, req protocol.DrainRequest) (protocol.DrainResponse, error)
}

// Options configures a Coordinator.
type Options struct {
	// HeartbeatInterval is advertised to workers at registration; 0 → 1s.
	HeartbeatInterval time.Duration
	// Lease is the liveness deadline: a worker whose last heartbeat is
	// older is marked lost and its cells requeued. 0 → 3×HeartbeatInterval.
	Lease time.Duration
	// MaxJobs, DefaultTimeout, MaxTimeout and Logf configure the embedded
	// client-facing service exactly as the service.Options fields of the
	// same names do; the request timeout bounds how long a dispatch waits
	// for its rows.
	MaxJobs        int
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// AssignmentCells caps the cells handed out per poll, so one slow
	// worker cannot hoard a whole sweep. 0 → 256.
	AssignmentCells int
	// MaxCellAttempts is the per-cell failure budget: how many failed
	// attempts (worker losses while the cell was in flight, contained cell
	// failures reported by workers) one cell may accumulate before it is
	// quarantined — completed as an error row while its sibling cells
	// finish normally. Without the budget one poison cell that crashes its
	// executor would serially kill every worker in the fleet and livelock
	// the dispatch. 0 → 3.
	MaxCellAttempts int
	// Logf receives operational log lines (worker loss, requeues, and the
	// embedded service's). Nil discards them.
	Logf func(format string, args ...any)
	// Admission forwards the embedded service's admission knobs as cmd/simd
	// parsed them; the zero value is the service defaults.
	Admission Admission
}

// Admission is the part of service.Options a coordinator's operator sets
// beyond the fields Options already forwards. Each field means exactly what
// the service.Options field of the same name does, zero value included.
type Admission struct {
	MaxInFlight int
	MaxQueue    int
	ClientRate  float64
	ClientBurst int
	JobTTL      time.Duration
}

// Coordinator schedules client requests over registered workers. Safe for
// concurrent use. Close must be called when done (it stops the liveness
// janitor and unblocks pending polls and dispatches).
type Coordinator struct {
	opt Options
	svc *service.Service // the client-facing facade, executing through c

	mu         sync.Mutex
	workers    map[string]*workerState
	dispatches map[string]*dispatch
	unassigned []*cellTask // cells with no live owner (no workers, requeue fault)
	seq        uint64      // dispatch/assignment ID counter

	// Counters for /metrics, guarded by mu.
	workersLost       uint64
	workersDrained    uint64
	cellsRequeued     uint64
	cellsQuarantined  uint64
	cellFailures      uint64
	rowsAccepted      uint64
	rowsRevoked       uint64
	dispatchCount     uint64
	dispatchesExpired uint64

	closed      chan struct{}
	closeOnce   sync.Once
	janitorDone chan struct{}
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id        string
	hash      uint64 // hashKey(id), route's worker coordinate
	addr      string
	lastBeat  time.Time
	queue     []*cellTask            // routed here, not yet delivered
	delivered map[string]*assignment // delivered, awaiting rows
	wake      chan struct{}          // poll wakeup, capacity 1
}

// assignment tracks one delivered cell batch until its rows are in.
type assignment struct {
	id    string
	d     *dispatch
	cells map[int]*cellTask // by global row index; emptied as rows arrive
}

// dispatch is one client request in flight: its row slots, completion
// bookkeeping, and the cache work its accepted assignments reported.
type dispatch struct {
	id    string
	kind  string // "batch" or "sweep"
	sweep *protocol.SweepGrid
	// deadline is the request's absolute deadline (zero = none), stamped
	// onto every assignment so workers stop at the same instant the
	// response settles.
	deadline time.Time

	rows      []protocol.Row
	done      []bool
	remaining int
	// outstanding counts delivered assignments not yet closed out (final
	// Done return, or revocation). The dispatch completes only when every
	// row is in AND outstanding is 0 — the final returns carry the
	// assignments' cache deltas, so completing on rows alone would race
	// the response's cache stats against its own workers.
	outstanding int
	failed      bool
	completed   bool
	doneCh      chan struct{}
	// fresh lists row indexes filled since Execute last reported progress,
	// and wake (capacity 1, coalescing) nudges it to look; both stay unused
	// for requests without a progress hook.
	fresh []int
	wake  chan struct{}

	cacheHits, cacheMisses uint64
	cacheTiers             memostore.Stats
}

// cellTask is one routable unit of work: the wire cell, its dispatch, the
// hash of the shard key that route pins it to a worker by, and the failed
// attempts it has accumulated against the quarantine budget.
type cellTask struct {
	d        *dispatch
	cell     protocol.Cell
	hash     uint64
	attempts int
}

// New builds a Coordinator and starts its liveness janitor.
func New(opt Options) *Coordinator {
	if opt.HeartbeatInterval <= 0 {
		opt.HeartbeatInterval = time.Second
	}
	if opt.Lease <= 0 {
		opt.Lease = 3 * opt.HeartbeatInterval
	}
	if opt.AssignmentCells <= 0 {
		opt.AssignmentCells = 256
	}
	if opt.MaxCellAttempts <= 0 {
		opt.MaxCellAttempts = 3
	}
	c := &Coordinator{
		opt:         opt,
		workers:     map[string]*workerState{},
		dispatches:  map[string]*dispatch{},
		closed:      make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	c.svc = service.New(service.Options{
		Executor:       c,
		MaxJobs:        opt.MaxJobs,
		DefaultTimeout: opt.DefaultTimeout,
		MaxTimeout:     opt.MaxTimeout,
		Logf:           opt.Logf,
		MaxInFlight:    opt.Admission.MaxInFlight,
		MaxQueue:       opt.Admission.MaxQueue,
		ClientRate:     opt.Admission.ClientRate,
		ClientBurst:    opt.Admission.ClientBurst,
		JobTTL:         opt.Admission.JobTTL,
	})
	go c.janitor()
	return c
}

// Service is the client-facing facade over the cluster: the full request
// surface of a standalone daemon (NewCoordinatorHandler mounts its HTTP
// form), every admitted plan executing through c. Drain it before Close so
// admitted requests and async jobs finish on the still-live fleet.
func (c *Coordinator) Service() *service.Service { return c.svc }

// Close stops the janitor and unblocks every pending poll and dispatch.
// Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.closed) })
	<-c.janitorDone
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// janitor periodically expires workers whose lease lapsed. The tick is a
// fraction of the lease so loss detection latency stays a small multiple
// of the configured deadline at any scale.
func (c *Coordinator) janitor() {
	defer close(c.janitorDone)
	tick := c.opt.Lease / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case now := <-t.C:
			c.expire(now)
		}
	}
}

// expire marks every worker with a lapsed lease lost and requeues its
// unfinished cells.
func (c *Coordinator) expire(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lapsed []*workerState
	for _, ws := range c.workers {
		if now.Sub(ws.lastBeat) > c.opt.Lease {
			lapsed = append(lapsed, ws)
		}
	}
	// Deterministic drop order (map iteration above is not).
	sort.Slice(lapsed, func(a, b int) bool { return lapsed[a].id < lapsed[b].id })
	for _, ws := range lapsed {
		c.workersLost++
		delete(c.workers, ws.id)
		c.dropWorkerLocked(ws, "lost (lease expired)")
	}
}

// wake nudges a blocked poll; non-blocking, coalescing.
func (ws *workerState) wakeUp() {
	select {
	case ws.wake <- struct{}{}:
	default:
	}
}

// scheduleLocked routes tasks to their owners' queues, or to the unassigned
// pool when no worker is live. Caller holds mu.
func (c *Coordinator) scheduleLocked(tasks []*cellTask) {
	for _, t := range tasks {
		ws := route(c.workers, t.hash)
		if ws == nil {
			c.unassigned = append(c.unassigned, t)
			continue
		}
		ws.queue = append(ws.queue, t)
		ws.wakeUp()
	}
}

// reassignLocked drains the unassigned pool onto the current workers.
// Caller holds mu; a no-op while there are none.
func (c *Coordinator) reassignLocked() {
	if len(c.unassigned) == 0 || len(c.workers) == 0 {
		return
	}
	tasks := c.unassigned
	c.unassigned = nil
	c.scheduleLocked(tasks)
}

// quarantineLocked completes a cell as a quarantine error row: its failure
// budget is spent, so retrying harder would only crash more workers. The
// sibling cells of its dispatch are untouched — the response degrades
// per-cell instead of hanging. cause (optional) is the last contained cell
// failure, appended to the row error so the client sees why. Caller holds
// mu and must maybeCompleteLocked the dispatch afterwards.
func (c *Coordinator) quarantineLocked(t *cellTask, cause string) {
	d := t.d
	if d.failed || d.done[t.cell.Index] {
		return
	}
	msg := service.QuarantinedRowError(t.attempts)
	if cause != "" {
		msg += ": " + cause
	}
	d.fillLocked(protocol.Row{Index: t.cell.Index, Error: msg})
	c.rowsAccepted++
	c.cellsQuarantined++
	c.logf("cluster: cell %d of dispatch %s quarantined after %d failed attempt(s)",
		t.cell.Index, d.id, t.attempts)
}

// byDispatchRow orders cells by (dispatch ID, row index). Cells are
// collected out of maps; charging and requeueing them in a fixed order keeps
// queues, logs and quarantine rows reproducible.
func byDispatchRow(cells []*cellTask) {
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].d.id != cells[b].d.id {
			return cells[a].d.id < cells[b].d.id
		}
		return cells[a].cell.Index < cells[b].cell.Index
	})
}

// chargeLocked is the failure budget's one site: each cell that was in
// flight and produced no row — its worker was lost, its execution failed, or
// its assignment closed without it — is charged one attempt. A cell whose
// budget is spent is quarantined with cause (this is what stops a poison
// cell from serially killing the whole fleet); the rest are returned, counted
// as requeued, for the caller to route. Cells of failed dispatches are
// dropped uncharged. Caller holds mu and must maybeCompleteLocked the cells'
// dispatches afterwards.
func (c *Coordinator) chargeLocked(cells []*cellTask, cause string) []*cellTask {
	byDispatchRow(cells)
	requeue := cells[:0]
	for _, t := range cells {
		if t.d.failed {
			continue
		}
		t.attempts++
		if t.attempts >= c.opt.MaxCellAttempts {
			c.quarantineLocked(t, cause)
			continue
		}
		requeue = append(requeue, t)
	}
	c.cellsRequeued += uint64(len(requeue))
	return requeue
}

// dropWorkerLocked revokes the delivered assignments of a worker incarnation
// the caller has already taken out of c.workers (lost, draining, or replaced
// by a re-registration) and requeues every cell it had not completed onto
// the workers registered now. Cells that were actually in flight (delivered,
// not just queued) are charged one failed attempt. Returns the requeued cell
// count. Caller holds mu.
func (c *Coordinator) dropWorkerLocked(ws *workerState, reason string) int {
	// Queued-but-undelivered cells requeue free of charge: the worker
	// never started them, so its loss says nothing about them.
	var tasks []*cellTask
	for _, t := range ws.queue {
		if !t.d.failed {
			tasks = append(tasks, t)
		}
	}
	c.cellsRequeued += uint64(len(tasks))
	var inflight []*cellTask
	touched := map[*dispatch]struct{}{}
	for _, asn := range ws.delivered {
		for _, t := range asn.cells {
			inflight = append(inflight, t)
		}
		asn.d.outstanding--
		touched[asn.d] = struct{}{}
	}
	ws.queue, ws.delivered = nil, nil // revoked: late returns find nothing
	before := c.cellsQuarantined
	tasks = append(tasks, c.chargeLocked(inflight, "")...)
	quarantined := c.cellsQuarantined - before
	byDispatchRow(tasks)
	if len(tasks) > 0 {
		if err := faultinject.Fire(faultinject.ClusterRequeue); err != nil {
			// Injected requeue fault: divert to the pool — never drop. The
			// pool drains on the next registration or poll.
			c.unassigned = append(c.unassigned, tasks...)
		} else {
			c.scheduleLocked(tasks)
		}
	}
	// A quarantined cell may have been a dispatch's last open row; an
	// assignment-less dispatch may have been waiting on outstanding alone.
	for d := range touched {
		c.maybeCompleteLocked(d)
		d.nudgeLocked()
	}
	// Pool-bound cells (requeue fault, or no workers) are picked up by
	// polls; wake every survivor so none sleeps through the handoff.
	for _, other := range c.workers {
		other.wakeUp()
	}
	if quarantined > 0 {
		c.logf("cluster: worker %s %s: %d cell(s) requeued, %d quarantined",
			ws.id, reason, len(tasks), quarantined)
	} else {
		c.logf("cluster: worker %s %s: %d cell(s) requeued", ws.id, reason, len(tasks))
	}
	return len(tasks)
}

// Register announces a worker (see protocol.RegisterRequest). Registering
// an ID that is already present replaces the old incarnation: the new one
// takes the ID first, so the old one's unfinished cells — whose results its
// disk tier may already hold — requeue to the same ID, not onto the others.
func (c *Coordinator) Register(ctx context.Context, req protocol.RegisterRequest) (protocol.RegisterResponse, error) {
	if req.WorkerID == "" {
		return protocol.RegisterResponse{}, errors.New("cluster: register with empty worker_id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.workers[req.WorkerID]
	c.workers[req.WorkerID] = &workerState{
		id:        req.WorkerID,
		hash:      hashKey(req.WorkerID),
		addr:      req.Addr,
		lastBeat:  time.Now(),
		delivered: map[string]*assignment{},
		wake:      make(chan struct{}, 1),
	}
	if old != nil {
		c.dropWorkerLocked(old, "replaced by re-registration")
	}
	c.reassignLocked()
	// Membership changed: cells queued on other workers keep their queues
	// (only the pool is rerouted — moving already-queued cells would churn
	// warm caches for no correctness gain).
	c.logf("cluster: worker %s registered (%s), %d worker(s) live", req.WorkerID, req.Addr, len(c.workers))
	return protocol.RegisterResponse{
		HeartbeatMS: c.opt.HeartbeatInterval.Milliseconds(),
		LeaseMS:     c.opt.Lease.Milliseconds(),
	}, nil
}

// Heartbeat refreshes a worker's lease. The faultinject seam models a
// control-channel blackhole: an injected error drops the beat before the
// lease is touched.
func (c *Coordinator) Heartbeat(ctx context.Context, req protocol.HeartbeatRequest) (protocol.HeartbeatResponse, error) {
	if err := faultinject.Fire(faultinject.ClusterHeartbeat); err != nil {
		return protocol.HeartbeatResponse{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[req.WorkerID]
	if ws == nil {
		return protocol.HeartbeatResponse{Reregister: true}, nil
	}
	ws.lastBeat = time.Now()
	return protocol.HeartbeatResponse{OK: true}, nil
}

// maxPollWait caps a long poll regardless of what the worker asked for.
const maxPollWait = 60 * time.Second

// Poll hands the worker its next assignment, long-polling up to WaitMS.
// Returns an empty response when the wait expires with nothing queued.
func (c *Coordinator) Poll(ctx context.Context, req protocol.PollRequest) (protocol.PollResponse, error) {
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > maxPollWait {
		wait = maxPollWait
	}
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		ws := c.workers[req.WorkerID]
		if ws == nil {
			c.mu.Unlock()
			return protocol.PollResponse{Reregister: true}, nil
		}
		c.reassignLocked()
		if liveQueued(ws.queue) {
			if err := faultinject.Fire(faultinject.ClusterDispatch); err != nil {
				// Injected dispatch fault: answer empty, cells stay queued
				// for a later poll — delayed, never lost.
				c.mu.Unlock()
				return protocol.PollResponse{}, nil
			}
			if a := c.takeAssignmentLocked(ws); a != nil {
				c.mu.Unlock()
				return protocol.PollResponse{Assignment: a}, nil
			}
		}
		wake := ws.wake
		c.mu.Unlock()

		remaining := time.Until(deadline)
		if remaining <= 0 {
			return protocol.PollResponse{}, nil
		}
		timer := time.NewTimer(remaining)
		select {
		case <-wake:
			timer.Stop()
		case <-timer.C:
			return protocol.PollResponse{}, nil
		case <-ctx.Done():
			timer.Stop()
			return protocol.PollResponse{}, ctx.Err()
		case <-c.closed:
			timer.Stop()
			return protocol.PollResponse{}, nil
		}
	}
}

// liveQueued reports whether the queue holds any cell of a live dispatch.
func liveQueued(queue []*cellTask) bool {
	for _, t := range queue {
		if !t.d.failed {
			return true
		}
	}
	return false
}

// takeAssignmentLocked pops one assignment off the worker's queue: the
// longest prefix of cells belonging to the first live dispatch, capped at
// AssignmentCells (an assignment carries one sweep grid, so it cannot mix
// dispatches). Cells of failed dispatches are scrubbed in passing. Caller
// holds mu; returns nil when only dead cells were queued.
func (c *Coordinator) takeAssignmentLocked(ws *workerState) *protocol.Assignment {
	var d *dispatch
	var taken []*cellTask
	rest := ws.queue[:0]
	for _, t := range ws.queue {
		switch {
		case t.d.failed:
			// dropped
		case d == nil && len(taken) < c.opt.AssignmentCells:
			d = t.d
			taken = append(taken, t)
		case t.d == d && len(taken) < c.opt.AssignmentCells:
			taken = append(taken, t)
		default:
			rest = append(rest, t)
		}
	}
	ws.queue = rest
	if d == nil {
		return nil
	}
	if len(ws.queue) > 0 {
		ws.wakeUp() // more work behind this assignment: next poll returns fast
	}
	c.seq++
	d.outstanding++
	asn := &assignment{
		id:    fmt.Sprintf("a%d", c.seq),
		d:     d,
		cells: make(map[int]*cellTask, len(taken)),
	}
	out := &protocol.Assignment{ID: asn.id, Kind: d.kind, Sweep: d.sweep}
	if !d.deadline.IsZero() {
		out.DeadlineMS = d.deadline.UnixMilli()
	}
	for _, t := range taken {
		asn.cells[t.cell.Index] = t
		cell := t.cell
		cell.Attempts = t.attempts
		out.Cells = append(out.Cells, cell)
	}
	ws.delivered[asn.id] = asn
	return out
}

// ReturnRows accepts completed rows from a worker. Rows for revoked
// assignments — the worker was marked lost or draining and its cells were
// requeued — are rejected wholesale (Revoked), which is what makes row
// delivery exactly-once under requeue: for any cell, either the original
// owner's row was accepted before revocation (the cell is complete and is
// never requeued) or it was revoked and only the new owner's row counts.
func (c *Coordinator) ReturnRows(ctx context.Context, req protocol.RowReturn) (protocol.RowAck, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[req.WorkerID]
	if ws == nil {
		c.rowsRevoked += uint64(len(req.Rows))
		return protocol.RowAck{Revoked: true}, nil
	}
	asn := ws.delivered[req.AssignmentID]
	if asn == nil {
		c.rowsRevoked += uint64(len(req.Rows))
		return protocol.RowAck{Revoked: true}, nil
	}
	accepted := 0
	for _, row := range req.Rows {
		t, ok := asn.cells[row.Index]
		if !ok {
			continue // duplicate within the assignment; already counted
		}
		delete(asn.cells, row.Index)
		d := t.d
		if d.failed || d.done[row.Index] {
			continue
		}
		if row.Failed {
			// Contained cell failure (the worker's execution wrapper caught a
			// panic and attributed it to the cell): charge the budget and
			// retry elsewhere, or quarantine when the budget is spent. Never
			// delivered to the client as-is.
			c.cellFailures++
			c.logf("cluster: cell %d of dispatch %s failed on %s (attempt %d): %s",
				row.Index, d.id, req.WorkerID, t.attempts+1, row.Error)
			c.scheduleLocked(c.chargeLocked([]*cellTask{t}, row.Error))
			continue
		}
		d.fillLocked(row)
		accepted++
	}
	c.rowsAccepted += uint64(accepted)
	if req.Done {
		if req.Cache != nil && !asn.d.failed {
			asn.d.cacheHits += req.Cache.Hits
			asn.d.cacheMisses += req.Cache.Misses
			asn.d.cacheTiers = asn.d.cacheTiers.Add(req.Cache.Tiers)
		}
		delete(ws.delivered, req.AssignmentID)
		asn.d.outstanding--
		if len(asn.cells) > 0 {
			// The worker declared the assignment finished without returning
			// every row (a worker-local failure it could not attribute to
			// cells, or the dispatch deadline cut it off): the leftovers were
			// in flight and produced nothing.
			leftovers := make([]*cellTask, 0, len(asn.cells))
			for _, t := range asn.cells {
				leftovers = append(leftovers, t)
			}
			tasks := c.chargeLocked(leftovers, "")
			c.scheduleLocked(tasks)
			c.logf("cluster: assignment %s finished incomplete on %s: %d cell(s) requeued",
				req.AssignmentID, req.WorkerID, len(tasks))
		}
	}
	// Done closed the assignment out, and a quarantine above may have filled
	// the dispatch's last open row; without Done the assignment is still
	// outstanding and this is a no-op.
	c.maybeCompleteLocked(asn.d)
	asn.d.nudgeLocked()
	return protocol.RowAck{Accepted: accepted}, nil
}

// fillLocked settles one open row slot. Caller holds mu.
func (d *dispatch) fillLocked(row protocol.Row) {
	d.rows[row.Index] = row
	d.done[row.Index] = true
	d.remaining--
	if d.wake != nil {
		d.fresh = append(d.fresh, row.Index)
	}
}

// nudgeLocked wakes the dispatch's Execute to report freshly filled rows:
// once per protocol call however many rows it carried, and never with user
// code under mu — the progress hook runs on Execute's goroutine. Caller
// holds mu.
func (d *dispatch) nudgeLocked() {
	if len(d.fresh) > 0 {
		select {
		case d.wake <- struct{}{}:
		default:
		}
	}
}

// maybeCompleteLocked closes a dispatch whose rows are all in and whose
// delivered assignments have all closed out (so every cache delta that
// will ever arrive has arrived). Caller holds mu.
func (c *Coordinator) maybeCompleteLocked(d *dispatch) {
	if !d.completed && !d.failed && d.remaining == 0 && d.outstanding == 0 {
		d.completed = true
		close(d.doneCh)
	}
}

// DrainWorker removes a departing worker and requeues everything it has
// not completed. The worker's already-returned rows stay accepted.
func (c *Coordinator) DrainWorker(ctx context.Context, req protocol.DrainRequest) (protocol.DrainResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[req.WorkerID]
	if ws == nil {
		return protocol.DrainResponse{}, nil
	}
	c.workersDrained++
	delete(c.workers, ws.id)
	n := c.dropWorkerLocked(ws, "draining")
	return protocol.DrainResponse{Requeued: n}, nil
}

// Workers reports the live worker count.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// ---- service.Executor ----------------------------------------------------

// shardKey builds a cell's routing coordinate: the device's canonical
// identity encoding plus the workload's cache key — exactly the persistent
// memo store's key coordinates, so cells co-locate with their cached
// results. Workloads that are not Keyed fall back to their Name (no cached
// result exists to co-locate with; the key only needs determinism).
func shardKey(spec machine.Spec, w run.Workload) string {
	id, _ := spec.IdentityString()
	wkey := w.Name()
	if kw, ok := w.(run.Keyed); ok {
		wkey = kw.CacheKey()
	}
	return id + "\x00" + wkey
}

// Execute runs one admitted plan across the cluster (service.Executor): it
// routes every job as a cell, waits for the rows, and returns them in job
// order with the cache work the accepted assignments reported. Cells go
// out as recipes — a batch cell's preset name and workload spec, a sweep
// cell's index into the grid every worker re-derives — never as resolved
// Go values.
//
// A request-deadline expiry is not a failure: the dispatch degrades — every
// row that arrived in time is kept and every open slot becomes a deadline
// error — instead of blocking on cells that will never land (e.g. every
// poll blackholed). Only the caller's cancellation or Close fails the call.
func (c *Coordinator) Execute(ctx context.Context, p *service.Plan, onProgress func(run.Progress)) ([]run.Result, []error, service.CacheStats, error) {
	n := len(p.Jobs)
	d := &dispatch{
		kind:      "batch",
		rows:      make([]protocol.Row, n),
		done:      make([]bool, n),
		remaining: n,
		doneCh:    make(chan struct{}),
	}
	switch {
	case p.Sweep != nil:
		d.kind = "sweep"
		d.sweep = &protocol.SweepGrid{Device: p.Sweep.Device, Axes: p.Sweep.Axes, Workloads: p.Sweep.Workloads}
	case p.Batch == nil:
		return nil, nil, service.CacheStats{}, errors.New("cluster: plan carries no wire request to dispatch")
	}
	// The request's absolute deadline is stamped onto every assignment so
	// workers stop at the same instant the response settles.
	d.deadline, _ = ctx.Deadline()
	if onProgress != nil {
		d.wake = make(chan struct{}, 1)
	}
	tasks := make([]*cellTask, n)
	for i, job := range p.Jobs {
		cell := protocol.Cell{Index: i, SweepJob: i}
		if d.sweep == nil {
			cell = protocol.Cell{Index: i, Device: job.Device.Name, Workload: p.BatchSpec(i)}
		}
		tasks[i] = &cellTask{d: d, cell: cell, hash: hashKey(shardKey(job.Device, job.Workload))}
	}
	c.mu.Lock()
	c.seq++
	c.dispatchCount++
	d.id = fmt.Sprintf("d%d", c.seq)
	c.dispatches[d.id] = d
	c.scheduleLocked(tasks)
	c.mu.Unlock()

	reported := 0
	report := func() {
		c.mu.Lock()
		rows := make([]protocol.Row, len(d.fresh))
		for i, idx := range d.fresh {
			rows[i] = d.rows[idx]
		}
		d.fresh = d.fresh[:0]
		c.mu.Unlock()
		for _, row := range rows {
			reported++
			onProgress(run.Progress{
				Done: reported, Total: n, Index: row.Index,
				Job: p.Jobs[row.Index], Result: row.Result, Err: rowError(row),
			})
		}
	}
	var err error
wait:
	for {
		select {
		case <-d.wake:
			report()
		case <-d.doneCh:
			break wait
		case <-ctx.Done():
			err = ctx.Err()
			break wait
		case <-c.closed:
			err = errors.New("cluster: coordinator closed")
			break wait
		}
	}
	if err = c.settle(d, err); err != nil {
		return nil, nil, service.CacheStats{}, err
	}
	if onProgress != nil {
		report()
	}
	// Settled: the dispatch is unregistered and complete or marked failed,
	// so no protocol call writes its rows or cache counters any more.
	results, errs := make([]run.Result, n), make([]error, n)
	for i, row := range d.rows {
		results[i], errs[i] = row.Result, rowError(row)
	}
	// Request-scoped on both axes: the coordinator holds no cache of its
	// own, so lifetime counters of individual workers would mislead here.
	return results, errs, service.CacheStats{
		Hits: d.cacheHits, Misses: d.cacheMisses,
		RequestHits: d.cacheHits, RequestMisses: d.cacheMisses,
		Tiers: d.cacheTiers, RequestTiers: d.cacheTiers,
	}, nil
}

// rowError lifts a wire row's error string back into the executor's
// positional error; the worker-side runner already named the cell in it.
func rowError(row protocol.Row) error {
	if row.Error == "" {
		return nil
	}
	return errors.New(row.Error)
}

// settle unregisters a dispatch once Execute stops waiting on it. waitErr
// is why the wait ended early (nil: every row is in). A deadline expiry
// fills a batch's open slots with deadline rows and reports success; a torn
// sweep grid has no base-relative deltas to assemble, so it fails wholesale
// — one line, however many cells were open. Any other early end is
// returned. Either way an incomplete dispatch is marked failed so stray
// queued cells are scrubbed and late rows dropped.
func (c *Coordinator) settle(d *dispatch, waitErr error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.dispatches, d.id)
	if waitErr == nil || d.completed {
		return nil
	}
	d.failed = true
	if !errors.Is(waitErr, context.DeadlineExceeded) {
		return waitErr
	}
	c.dispatchesExpired++
	expired := 0
	for i, ok := range d.done {
		if !ok {
			d.fillLocked(protocol.Row{Index: i, Error: service.DeadlineRowError()})
			expired++
		}
	}
	c.logf("cluster: dispatch %s deadline expired: %d row(s) returned degraded", d.id, expired)
	if d.sweep != nil {
		return &service.ExecutionError{Err: fmt.Errorf("%d of %d cells: %s", expired, len(d.done), service.DeadlineRowError())}
	}
	return nil
}

// Batch and Sweep serve a client request through the embedded service —
// the in-process form of POSTing it to NewCoordinatorHandler.
func (c *Coordinator) Batch(ctx context.Context, req service.BatchRequest) (*service.Response, error) {
	return c.svc.Batch(ctx, req)
}

func (c *Coordinator) Sweep(ctx context.Context, req service.SweepRequest) (*service.Response, error) {
	return c.svc.Sweep(ctx, req)
}
