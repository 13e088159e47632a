package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"riscvmem/internal/cluster/protocol"
	"riscvmem/internal/run"
	"riscvmem/internal/service"
)

// stubAPI is a hand-rolled coordinator for worker-side unit tests: it
// records every RowReturn and lets the test script the acks.
type stubAPI struct {
	mu      sync.Mutex
	returns []protocol.RowReturn
	calls   int
	// ack scripts ReturnRows; nil accepts everything. call is 1-based.
	ack func(call int, req protocol.RowReturn) (protocol.RowAck, error)
}

func (s *stubAPI) Register(ctx context.Context, req protocol.RegisterRequest) (protocol.RegisterResponse, error) {
	return protocol.RegisterResponse{HeartbeatMS: 1000, LeaseMS: 3000}, nil
}

func (s *stubAPI) Heartbeat(ctx context.Context, req protocol.HeartbeatRequest) (protocol.HeartbeatResponse, error) {
	return protocol.HeartbeatResponse{OK: true}, nil
}

func (s *stubAPI) Poll(ctx context.Context, req protocol.PollRequest) (protocol.PollResponse, error) {
	return protocol.PollResponse{}, nil
}

func (s *stubAPI) ReturnRows(ctx context.Context, req protocol.RowReturn) (protocol.RowAck, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	s.returns = append(s.returns, req)
	if s.ack != nil {
		return s.ack(s.calls, req)
	}
	return protocol.RowAck{Accepted: len(req.Rows)}, nil
}

func (s *stubAPI) DrainWorker(ctx context.Context, req protocol.DrainRequest) (protocol.DrainResponse, error) {
	return protocol.DrainResponse{}, nil
}

func (s *stubAPI) snapshot() (int, []protocol.RowReturn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls, append([]protocol.RowReturn(nil), s.returns...)
}

// mangoPiBatch is the recipe of a batch running the given specs on MangoPi,
// encoded as the coordinator ships it: job i runs specs[i].
func mangoPiBatch(specs ...string) json.RawMessage {
	req := &service.BatchRequest{Devices: []string{"MangoPi"}}
	for _, s := range specs {
		req.Workloads = append(req.Workloads, run.MustParseWorkloadSpec(s))
	}
	recipe, err := json.Marshal(service.JobRequest{Batch: req})
	if err != nil {
		panic(err) // a batch of parsed specs always encodes
	}
	return recipe
}

// TestWorkerPanicContainment pins the tentpole's worker half: a panic
// anywhere in the execution path (here: a nil Service, standing in for any
// executor bug the runner's own recovery cannot reach) must not escape
// execute. It is contained and reported as per-cell failure rows — Failed
// set, the panic in the error, every unresolved cell covered — so the
// coordinator charges the cells' budgets instead of losing a worker.
func TestWorkerPanicContainment(t *testing.T) {
	stub := &stubAPI{}
	w := &Worker{opt: WorkerOptions{ID: "frail", API: stub, FlushRows: 16, Logf: t.Logf}}
	specs := make([]string, 8)
	for i := range specs {
		specs[i] = fmt.Sprintf("stream:test=COPY,elems=%d,reps=1", 64*(i+1))
	}
	a := &protocol.Assignment{ID: "a1", Request: mangoPiBatch(specs...),
		Cells: []protocol.Cell{{Index: 3}, {Index: 7}}}

	w.execute(context.Background(), a) // must return, not panic the test

	calls, returns := stub.snapshot()
	if calls != 1 {
		t.Fatalf("ReturnRows called %d times, want 1 (single contained close-out)", calls)
	}
	ret := returns[0]
	if !ret.Done {
		t.Error("contained close-out not marked Done")
	}
	if len(ret.Rows) != 2 {
		t.Fatalf("close-out carries %d rows, want one per cell (2)", len(ret.Rows))
	}
	gotIdx := map[int]bool{}
	for _, row := range ret.Rows {
		gotIdx[row.Index] = true
		if !row.Failed {
			t.Errorf("row %d not marked Failed: %+v", row.Index, row)
		}
		if !strings.Contains(row.Error, "panic") || !strings.Contains(row.Error, "frail") {
			t.Errorf("row %d error %q: want the panic attributed to the worker", row.Index, row.Error)
		}
	}
	if !gotIdx[3] || !gotIdx[7] {
		t.Errorf("failure rows cover indexes %v, want the assignment's global indexes 3 and 7", gotIdx)
	}
	if w.cellFailures.Load() != 1 {
		t.Errorf("cellFailures = %d, want 1", w.cellFailures.Load())
	}
}

// executeAssignment runs one real single-cell assignment through a worker
// wired to the stub, returning the worker for counter assertions.
func executeAssignment(t *testing.T, stub *stubAPI) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerOptions{
		ID: "retrier", Service: service.New(service.Options{}), API: stub,
		FlushRows: 16, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	w.execute(context.Background(), &protocol.Assignment{
		ID: "a1", Request: mangoPiBatch("stream:test=COPY,elems=64,reps=1"),
		Cells: []protocol.Cell{{Index: 0}},
	})
	return w
}

// TestWorkerReturnRetryThenAbandon pins satellite behavior on the flush
// retry loop: transport errors are retried (3 attempts), and giving up is
// not silent — it is counted in the worker's metrics.
func TestWorkerReturnRetryThenAbandon(t *testing.T) {
	stub := &stubAPI{ack: func(call int, req protocol.RowReturn) (protocol.RowAck, error) {
		return protocol.RowAck{}, errors.New("injected: transport down")
	}}
	start := time.Now()
	w := executeAssignment(t, stub)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("abandonment took %s; retries must be bounded", elapsed)
	}
	calls, _ := stub.snapshot()
	if calls != 3 {
		t.Errorf("ReturnRows called %d times, want exactly 3 attempts before abandoning", calls)
	}
	if w.returnsAbandoned.Load() != 1 {
		t.Errorf("returnsAbandoned = %d, want 1", w.returnsAbandoned.Load())
	}
	if w.rowsAbandoned.Load() != 1 {
		t.Errorf("rowsAbandoned = %d, want 1", w.rowsAbandoned.Load())
	}
}

// TestWorkerReturnTransientErrorRecovers pins the complement: a transport
// error that clears before the attempts run out delivers the rows and
// abandons nothing.
func TestWorkerReturnTransientErrorRecovers(t *testing.T) {
	stub := &stubAPI{ack: func(call int, req protocol.RowReturn) (protocol.RowAck, error) {
		if call <= 2 {
			return protocol.RowAck{}, errors.New("injected: transient transport error")
		}
		return protocol.RowAck{Accepted: len(req.Rows)}, nil
	}}
	w := executeAssignment(t, stub)
	calls, returns := stub.snapshot()
	if calls != 3 {
		t.Errorf("ReturnRows called %d times, want 3 (two failures + success)", calls)
	}
	if w.returnsAbandoned.Load() != 0 {
		t.Errorf("returnsAbandoned = %d, want 0 after recovery", w.returnsAbandoned.Load())
	}
	last := returns[len(returns)-1]
	if !last.Done || len(last.Rows) != 1 || last.Rows[0].Error != "" {
		t.Errorf("delivered return %+v, want one clean Done row", last)
	}
}

// TestWorkerReturnRevokedStopsImmediately pins the Revoked half: a revoked
// ack is an answer, not a failure — the worker must stop at once (no
// retries of a rejected return, no further returns for the assignment).
func TestWorkerReturnRevokedStopsImmediately(t *testing.T) {
	stub := &stubAPI{ack: func(call int, req protocol.RowReturn) (protocol.RowAck, error) {
		return protocol.RowAck{Revoked: true}, nil
	}}
	w, err := NewWorker(WorkerOptions{
		ID: "revoked", Service: service.New(service.Options{}), API: stub,
		FlushRows: 1, Logf: t.Logf, // flush per row: the first row trips the revocation
	})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	w.execute(context.Background(), &protocol.Assignment{
		ID:      "a1",
		Request: mangoPiBatch("stream:test=COPY,elems=64,reps=1", "stream:test=SCALE,elems=64,reps=1"),
		Cells:   []protocol.Cell{{Index: 0}, {Index: 1}},
	})
	calls, _ := stub.snapshot()
	if calls != 1 {
		t.Errorf("ReturnRows called %d times after a Revoked ack, want exactly 1", calls)
	}
	if w.returnsAbandoned.Load() != 0 {
		t.Errorf("returnsAbandoned = %d, want 0 (revocation is not abandonment)", w.returnsAbandoned.Load())
	}
}

// TestWorkerCellOutOfRange pins the worker's answer to a cell its recipe
// does not plan (a coordinator of another version): the assignment closes
// with one error row per cell, in a single Done return, and none of them
// is a Failed row — a skewed worker is not a poison cell, so nothing is
// charged against the cells' budgets.
func TestWorkerCellOutOfRange(t *testing.T) {
	stub := &stubAPI{}
	w, err := NewWorker(WorkerOptions{
		ID: "skewed", Service: service.New(service.Options{}), API: stub,
		FlushRows: 16, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	w.execute(context.Background(), &protocol.Assignment{
		ID: "a1", Request: mangoPiBatch("stream:test=COPY,elems=64,reps=1"),
		Cells: []protocol.Cell{{Index: 0}, {Index: 1}},
	})
	calls, returns := stub.snapshot()
	if calls != 1 || !returns[0].Done {
		t.Fatalf("%d returns %+v, want one Done close-out", calls, returns)
	}
	rows := returns[0].Rows
	if len(rows) != 2 || rows[0].Index != 0 || rows[1].Index != 1 {
		t.Fatalf("close-out rows %+v, want one per cell (0, 1)", rows)
	}
	for _, row := range rows {
		if row.Failed || !strings.Contains(row.Error, "cell 1 out of range") {
			t.Errorf("row %+v: want an error row naming the out-of-range cell, not a Failed row", row)
		}
	}
	if n := w.cellFailures.Load(); n != 0 {
		t.Errorf("cellFailures = %d, want 0", n)
	}
}

// skewedAPI is a coordinator of a newer version as a worker sees it: every
// recipe it hands out carries a field this build does not know.
type skewedAPI struct{ API }

func (s skewedAPI) Poll(ctx context.Context, req protocol.PollRequest) (protocol.PollResponse, error) {
	resp, err := s.API.Poll(ctx, req)
	if a := resp.Assignment; a != nil {
		a.Request = append([]byte(`{"priority":1,`), a.Request[1:]...)
	}
	return resp, err
}

// TestWorkerAnswersSkewedRecipe pins the version-skew answer end to end: a
// worker that cannot decode its recipe strictly answers every cell with an
// error row naming the field. None of them is a Failed row, so the
// coordinator charges no cell: nothing is requeued or quarantined.
func TestWorkerAnswersSkewedRecipe(t *testing.T) {
	coord := New(Options{Logf: t.Logf})
	w := startWorker(t, skewedAPI{coord}, "w1", nil)
	defer func() {
		w.stop()
		coord.Close()
	}()
	waitForWorkers(t, coord, 1)
	resp, err := coord.Service().Batch(context.Background(), service.BatchRequest{
		Devices: []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{
			run.MustParseWorkloadSpec("stream:test=COPY,elems=64,reps=1"),
			run.MustParseWorkloadSpec("stream:test=SCALE,elems=64,reps=1"),
		},
		Options: service.RequestOptions{TimeoutMS: 5000},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("%d rows, want 2", len(resp.Results))
	}
	for i, row := range resp.Results {
		if !strings.Contains(row.Error, `unknown field "priority"`) {
			t.Errorf("row %d error %q, want the worker's decode error", i, row.Error)
		}
	}
	coord.mu.Lock()
	defer coord.mu.Unlock()
	if coord.cellFailures != 0 || coord.cellsRequeued != 0 || coord.cellsQuarantined != 0 {
		t.Errorf("cell failures %d, requeued %d, quarantined %d: want no cell charged",
			coord.cellFailures, coord.cellsRequeued, coord.cellsQuarantined)
	}
}
