// Package protocol defines the transport-agnostic messages of the riscvmem
// cluster control plane: worker registration, heartbeats, cell assignment,
// row return, and drain. Every message is a plain JSON-serializable value —
// nothing about Go closures, channels, or internal pointers on the wire —
// mirroring how service.NewHandler keeps the request facade independent of
// HTTP. Work travels as a recipe: an assignment carries the client's
// request as JSON encoded once per dispatch, and each of its cells is one
// job index into the plan service.PlanRequest derives from that request on
// either side. The coordinator (internal/cluster.Coordinator) implements
// the server side of these messages directly as methods, so an in-process
// cluster, an httptest cluster, and a three-process deployment all speak
// exactly the same protocol; internal/cluster.Client is the HTTP binding.
//
// The conversation is strictly worker-initiated (register → heartbeat ∥
// poll → return rows → drain), so workers need no listening address and the
// coordinator never dials: one reachable endpoint is the whole topology.
//
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//
//simlint:deterministic
package protocol

import (
	"encoding/json"

	"riscvmem/internal/memostore"
	"riscvmem/internal/run"
)

// RegisterRequest announces a worker to the coordinator. Re-registering an
// ID that is currently lost or draining replaces the old incarnation: the
// worker rejoins fresh, with no outstanding assignments.
type RegisterRequest struct {
	// WorkerID names the worker; it is the worker's routing identity
	// (rendezvous hashing weighs each cell's shard key against it), so a
	// stable ID across restarts preserves shard affinity (and with it the
	// worker's warm memo store).
	WorkerID string `json:"worker_id"`
	// Addr is the worker's own service address, informational only (logs):
	// the coordinator never dials a worker.
	Addr string `json:"addr,omitempty"`
}

// RegisterResponse tells the worker its obligations.
type RegisterResponse struct {
	// HeartbeatMS is how often the worker must heartbeat.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	// LeaseMS is the liveness deadline: a worker silent for longer is
	// marked lost and its unfinished cells are requeued.
	LeaseMS int64 `json:"lease_ms"`
}

// HeartbeatRequest refreshes a worker's lease. Heartbeats (and
// registration) are the only liveness signal — deliberately not polls or
// row returns, so a blackholed control channel fails fast and
// deterministically even while data still flows.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}

// HeartbeatResponse acknowledges a beat. Reregister is set when the
// coordinator no longer knows the worker (it was marked lost, or the
// coordinator restarted); the worker must register again before polling.
type HeartbeatResponse struct {
	OK         bool `json:"ok"`
	Reregister bool `json:"reregister,omitempty"`
}

// PollRequest asks for work. The call long-polls: the coordinator holds it
// open up to WaitMS waiting for cells to arrive on the worker's queue.
type PollRequest struct {
	WorkerID string `json:"worker_id"`
	WaitMS   int64  `json:"wait_ms,omitempty"`
}

// PollResponse carries at most one assignment; nil means the wait expired
// with nothing queued (poll again). Reregister as in HeartbeatResponse.
type PollResponse struct {
	Assignment *Assignment `json:"assignment,omitempty"`
	Reregister bool        `json:"reregister,omitempty"`
}

// Assignment is one batch of cells for one worker. Cells of one assignment
// always belong to one dispatch (one client request), so the request's
// recipe is carried once, not per cell.
type Assignment struct {
	ID string `json:"id"`
	// Request is the client's service.JobRequest as the coordinator
	// encoded it once per dispatch; the worker plans it with the same
	// service.PlanRequest — a pure function of the request — so both sides
	// agree on every job, and a cell is only its job index. Its timeout is
	// not the worker's: DeadlineMS is.
	Request json.RawMessage `json:"request"`
	Cells   []Cell          `json:"cells"`
	// DeadlineMS is the dispatch's absolute deadline (Unix milliseconds,
	// 0 = none), propagated from the client request so a worker never
	// burns cycles on cells whose response has already been settled: the
	// worker bounds its execution context at this instant and ships
	// nothing for cells it could not finish in time.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Cell is one unit of assignable work: Index is the cell's job index in
// the plan of its assignment's request. The worker echoes it back with the
// row, so reassembly is in job order regardless of completion order.
type Cell struct {
	Index int `json:"index"`
	// Attempts is how many failed attempts (worker losses, contained cell
	// failures) this cell has already survived. Informational for the
	// worker (logging a retry as a retry); the coordinator owns the count
	// and quarantines the cell when it exhausts the failure budget.
	Attempts int `json:"attempts,omitempty"`
}

// Row is one completed cell: the deterministic simulator's Result — which
// JSON round-trips bit-identically (finite float64s re-decode exactly) —
// or the cell's error.
//
// Failed distinguishes a *cell failure* from a workload error. A workload
// error (Error set, Failed false) is a final answer: the cell executed and
// its workload failed — the row is delivered to the client as-is. A failure
// row (Failed true) means the worker could not execute the cell at all —
// a panic contained in the worker's execution path, attributed to the cell
// rather than crashing the worker and looking like a worker loss. The
// coordinator charges a failure row against the cell's attempt budget and
// requeues it (or quarantines it when the budget is spent); it is never
// delivered to the client directly.
type Row struct {
	Index  int        `json:"index"`
	Result run.Result `json:"result"`
	Error  string     `json:"error,omitempty"`
	Failed bool       `json:"failed,omitempty"`
}

// RowReturn streams completed rows back to the coordinator. A worker may
// return an assignment's rows across several calls (the serialized
// progress path flushes in chunks); Done marks the final call, carrying
// the assignment-level cache delta.
type RowReturn struct {
	WorkerID     string `json:"worker_id"`
	AssignmentID string `json:"assignment_id"`
	Rows         []Row  `json:"rows,omitempty"`
	Done         bool   `json:"done,omitempty"`
	// Cache is the worker-side request delta for this assignment (set with
	// Done): how many of its cells hit the worker's memo store, per tier.
	// The coordinator aggregates accepted deltas into the response — and
	// discards revoked ones, so a requeued cell is never double-counted.
	Cache *CacheDelta `json:"cache,omitempty"`
}

// CacheDelta is the cache work one assignment caused on one worker.
type CacheDelta struct {
	Hits   uint64          `json:"hits"`
	Misses uint64          `json:"misses"`
	Tiers  memostore.Stats `json:"tiers"`
}

// RowAck acknowledges a RowReturn. Revoked tells the worker the assignment
// is no longer valid (the worker was marked lost or draining and the cells
// were requeued): the worker should abandon the assignment's remaining
// work — nothing it returns for it will be accepted.
type RowAck struct {
	Accepted int  `json:"accepted"`
	Revoked  bool `json:"revoked,omitempty"`
}

// DrainRequest announces that a worker is shutting down: the coordinator
// stops assigning to it and requeues everything it has not completed.
type DrainRequest struct {
	WorkerID string `json:"worker_id"`
}

// DrainResponse reports the requeue.
type DrainResponse struct {
	Requeued int `json:"requeued"`
}
