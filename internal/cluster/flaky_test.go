package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"riscvmem/internal/cluster/protocol"
	"riscvmem/internal/faultinject"
	"riscvmem/internal/leakcheck"
	"riscvmem/internal/run"
	"riscvmem/internal/service"
)

// Verb names a FlakyTransport can select on — the protocol's five calls,
// spelled like their HTTP paths (see http.go).
const (
	VerbRegister  = "register"
	VerbHeartbeat = "heartbeat"
	VerbPoll      = "poll"
	VerbRows      = "rows"
	VerbDrain     = "drain"
)

// FlakyOptions configures a FlakyTransport.
type FlakyOptions struct {
	// Verbs selects which protocol calls misbehave; nil or empty means all
	// of them. Names are the Verb* constants.
	Verbs []string
	// Duplicate, when non-nil and returning true for a verb, delivers the
	// selected call twice: the first response is discarded, the second is
	// returned — exactly what a retransmit-after-lost-ack looks like to the
	// coordinator, which must keep row delivery exactly-once under it.
	Duplicate func(verb string) bool
}

// FlakyTransport decorates a protocol API with a misbehaving network:
// per-verb drops (via the faultinject seams ClusterSend and ClusterRecv)
// and duplicate delivery. It is the chaos suite's
// stand-in for the real world between worker and coordinator — packet
// loss, half-open connections, and retransmits — without touching either
// endpoint's code.
//
// Drop semantics are asymmetric on purpose, mirroring where a real network
// loses a message: a ClusterSend fault drops the request before the
// coordinator sees it (no side effects happened; the caller must retry),
// while a ClusterRecv fault drops the response after the coordinator acted
// (side effects happened; a naive retry is a duplicate — which is exactly
// the case the coordinator's per-index dedup and revocation logic must
// absorb). Duplicate works in the default build too; the drop seams are
// live only under -tags faultinject.
type FlakyTransport struct {
	inner API
	opt   FlakyOptions

	dropsSend  atomic.Uint64
	dropsRecv  atomic.Uint64
	duplicates atomic.Uint64
}

// NewFlakyTransport wraps inner with the configured misbehavior.
func NewFlakyTransport(inner API, opt FlakyOptions) *FlakyTransport {
	return &FlakyTransport{inner: inner, opt: opt}
}

// Drops reports how many requests (send) and responses (recv) were dropped.
func (f *FlakyTransport) Drops() (send, recv uint64) {
	return f.dropsSend.Load(), f.dropsRecv.Load()
}

// Duplicates reports how many calls were delivered twice.
func (f *FlakyTransport) Duplicates() uint64 { return f.duplicates.Load() }

func (f *FlakyTransport) applies(verb string) bool {
	if len(f.opt.Verbs) == 0 {
		return true
	}
	for _, v := range f.opt.Verbs {
		if v == verb {
			return true
		}
	}
	return false
}

// flakyCall routes one call through the misbehavior pipeline: request
// drop, then (optionally duplicated) delivery, then response drop.
// A free function because Go methods cannot carry type parameters.
func flakyCall[Req, Resp any](ctx context.Context, f *FlakyTransport, verb string, req Req,
	call func(context.Context, Req) (Resp, error)) (Resp, error) {
	var zero Resp
	if !f.applies(verb) {
		return call(ctx, req)
	}
	if err := faultinject.Fire(faultinject.ClusterSend); err != nil {
		f.dropsSend.Add(1)
		return zero, fmt.Errorf("cluster: flaky transport dropped %s request: %w", verb, err)
	}
	if f.opt.Duplicate != nil && f.opt.Duplicate(verb) {
		f.duplicates.Add(1)
		// First delivery: side effects land, response vanishes (lost ack).
		// Its error, if any, vanishes with it — the retransmit below is the
		// delivery the caller observes.
		_, _ = call(ctx, req)
	}
	resp, err := call(ctx, req)
	if err != nil {
		return resp, err
	}
	if err := faultinject.Fire(faultinject.ClusterRecv); err != nil {
		f.dropsRecv.Add(1)
		return zero, fmt.Errorf("cluster: flaky transport dropped %s response: %w", verb, err)
	}
	return resp, nil
}

func (f *FlakyTransport) Register(ctx context.Context, req protocol.RegisterRequest) (protocol.RegisterResponse, error) {
	return flakyCall(ctx, f, VerbRegister, req, f.inner.Register)
}

func (f *FlakyTransport) Heartbeat(ctx context.Context, req protocol.HeartbeatRequest) (protocol.HeartbeatResponse, error) {
	return flakyCall(ctx, f, VerbHeartbeat, req, f.inner.Heartbeat)
}

func (f *FlakyTransport) Poll(ctx context.Context, req protocol.PollRequest) (protocol.PollResponse, error) {
	return flakyCall(ctx, f, VerbPoll, req, f.inner.Poll)
}

func (f *FlakyTransport) ReturnRows(ctx context.Context, req protocol.RowReturn) (protocol.RowAck, error) {
	return flakyCall(ctx, f, VerbRows, req, f.inner.ReturnRows)
}

func (f *FlakyTransport) DrainWorker(ctx context.Context, req protocol.DrainRequest) (protocol.DrainResponse, error) {
	return flakyCall(ctx, f, VerbDrain, req, f.inner.DrainWorker)
}

// TestFlakyTransportDuplicateRowsExactlyOnce runs a batch with every
// RowReturn delivered twice — the retransmit-after-lost-ack pattern — and
// requires the response bit-identical to standalone with every row accepted
// exactly once: the duplicate's rows must bounce off the coordinator's
// per-index dedup (mid-assignment) or revocation (after Done), never count
// twice. Duplicate delivery needs no faultinject seam, so this is an
// untagged test: the invariant holds in production builds too.
func TestFlakyTransportDuplicateRowsExactlyOnce(t *testing.T) {
	assertNoLeaks := leakcheck.Check(t)
	ctx := context.Background()
	req := service.BatchRequest{
		Devices: []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{
			run.MustParseWorkloadSpec("stream:test=COPY,elems=2048,reps=1"),
			run.MustParseWorkloadSpec("stream:test=TRIAD,elems=2048,reps=1"),
			run.MustParseWorkloadSpec("transpose:variant=Naive,n=96"),
		},
	}
	want, err := service.New(service.Options{}).Batch(ctx, req)
	if err != nil {
		t.Fatalf("standalone Batch: %v", err)
	}

	coord := New(Options{Logf: t.Logf})
	flaky := NewFlakyTransport(coord, FlakyOptions{
		Verbs:     []string{VerbRows},
		Duplicate: func(verb string) bool { return true },
	})
	// Row-by-row flushes so duplication hits both mid-assignment returns
	// and the final Done return.
	w := startWorker(t, flaky, "w1", func(o *WorkerOptions) { o.FlushRows = 1 })
	waitForWorkers(t, coord, 1)

	resp, err := coord.Service().Batch(ctx, req)
	if err != nil {
		t.Fatalf("cluster batch under duplicated returns: %v", err)
	}
	if len(resp.Results) != len(want.Results) {
		t.Fatalf("cluster batch: %d rows, standalone %d", len(resp.Results), len(want.Results))
	}
	for i := range resp.Results {
		if resp.Results[i].Result != want.Results[i].Result || resp.Results[i].Error != want.Results[i].Error {
			t.Errorf("row %d: cluster %+v != standalone %+v", i, resp.Results[i], want.Results[i])
		}
	}

	if flaky.Duplicates() == 0 {
		t.Error("no call was ever duplicated: the retransmit path was not exercised")
	}
	coord.mu.Lock()
	accepted := coord.rowsAccepted
	coord.mu.Unlock()
	if accepted != uint64(len(want.Results)) {
		t.Errorf("rowsAccepted = %d, want exactly %d (one per job despite duplication)", accepted, len(want.Results))
	}

	w.stop()
	coord.Close()
	assertNoLeaks()
}
