package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"riscvmem/internal/cluster"
	"riscvmem/internal/cluster/protocol"
	"riscvmem/internal/memostore"
)

// span is one timed interval at a layer boundary. Spans of one client op
// share Op; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) micros() float64    { return float64(s.End-s.Start) / 1e3 }

// Span names. The tracer lives entirely in the benchmark: every span is
// taken around a call into a layer's public surface, from outside it.
const (
	spanClientOp   = "client.op"         // harness: op sent → reply read
	spanHandler    = "http.handler"      // middleware around service / coordinator handler
	spanStoreGet   = "store.get."        // + tier that served it (memory, disk, none)
	spanStorePut   = "store.put"         // memostore.Store decorator
	spanAssignment = "worker.assignment" // poll returned it → final ReturnRows acked
	spanReturn     = "api.rows"          // one ReturnRows call (cluster.API decorator)
)

// tracer keeps spans in memory and writes them out when the run ends. The
// load is one closed-loop client, so "the op in flight" is a single value:
// layers that cannot be handed a request ID (the memo store sits behind the
// runner) attribute their spans to it.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	op      atomic.Int64 // op in flight, -1 outside ops (set-up fill)
	client  atomic.Int64 // its client.op span
	handler atomic.Int64 // its http.handler span

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.op.Store(-1)
	return t
}

func (t *tracer) id() int64 { return t.nextID.Add(1) }

func (t *tracer) add(id, parent int64, name string, start, end time.Time) {
	s := span{
		ID: id, Parent: parent, Op: t.op.Load(), Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginOp opens op i's client span; endOp closes it.
func (t *tracer) beginOp(i int) (id int64, start time.Time) {
	id = t.id()
	t.op.Store(int64(i))
	t.client.Store(id)
	return id, time.Now()
}

func (t *tracer) endOp(id int64, start time.Time) {
	t.add(id, 0, spanClientOp, start, time.Now())
	t.op.Store(-1)
	t.client.Store(0)
	t.handler.Store(0)
}

// opHeader marks a request as a benchmark op so the middleware can tell it
// from the cluster workers' verb calls on the same handler.
const opHeader = "X-Bench-Op"

// middleware wraps a handler with the http.handler span.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(opHeader) == "" {
			next.ServeHTTP(w, r)
			return
		}
		id := t.id()
		t.handler.Store(id)
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(id, t.client.Load(), spanHandler, start, time.Now())
	})
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// byName returns the spans with the given name, in recording order.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func medianMicros(spans []span) float64 {
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = s.micros()
	}
	return median(xs)
}

// tracedStore decorates a memostore.Store with get/put spans, split by the
// tier that served the get. parent names the span that caused the access:
// the HTTP handler in a standalone service, the assignment on a worker.
type tracedStore struct {
	inner  memostore.Store
	t      *tracer
	parent func() int64
}

func (s *tracedStore) Get(key memostore.Key) (any, memostore.Tier, bool) {
	start := time.Now()
	v, tier, ok := s.inner.Get(key)
	s.t.add(s.t.id(), s.parent(), spanStoreGet+tier.String(), start, time.Now())
	return v, tier, ok
}

func (s *tracedStore) Put(key memostore.Key, v any) {
	start := time.Now()
	s.inner.Put(key, v)
	s.t.add(s.t.id(), s.parent(), spanStorePut, start, time.Now())
}

func (s *tracedStore) Stats() memostore.Stats { return s.inner.Stats() }

// tracedAPI decorates the worker-side cluster.API (the HTTP client) with one
// span per assignment — from the poll that delivered it to the acknowledged
// final ReturnRows — and one per ReturnRows call inside it.
type tracedAPI struct {
	cluster.API // Register, Heartbeat and DrainWorker pass straight through
	t           *tracer

	current atomic.Int64 // newest assignment's span, parent of the worker's store spans

	mu   sync.Mutex
	open map[string]openAssignment

	// Totals over the run, for the cluster layer metrics.
	assignments atomic.Uint64
	cells       atomic.Uint64
	returns     atomic.Uint64
	rows        atomic.Uint64
}

type openAssignment struct {
	id    int64
	start time.Time
}

func newTracedAPI(inner cluster.API, t *tracer) *tracedAPI {
	return &tracedAPI{API: inner, t: t, open: map[string]openAssignment{}}
}

func (a *tracedAPI) Poll(ctx context.Context, req protocol.PollRequest) (protocol.PollResponse, error) {
	resp, err := a.API.Poll(ctx, req)
	if err == nil && resp.Assignment != nil {
		// The assignment span starts when the worker holds it; the long
		// poll's idle wait before that is not the worker's time.
		id := a.t.id()
		a.current.Store(id)
		a.mu.Lock()
		a.open[resp.Assignment.ID] = openAssignment{id: id, start: time.Now()}
		a.mu.Unlock()
		a.assignments.Add(1)
		a.cells.Add(uint64(len(resp.Assignment.Cells)))
	}
	return resp, err
}

func (a *tracedAPI) ReturnRows(ctx context.Context, req protocol.RowReturn) (protocol.RowAck, error) {
	a.mu.Lock()
	asn, known := a.open[req.AssignmentID]
	if known && req.Done {
		delete(a.open, req.AssignmentID)
	}
	a.mu.Unlock()
	start := time.Now()
	ack, err := a.API.ReturnRows(ctx, req)
	a.t.add(a.t.id(), asn.id, spanReturn, start, time.Now())
	a.returns.Add(1)
	a.rows.Add(uint64(len(req.Rows)))
	if known && req.Done {
		a.t.add(asn.id, a.t.handler.Load(), spanAssignment, asn.start, time.Now())
	}
	return ack, err
}
