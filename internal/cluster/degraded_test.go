package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"riscvmem/internal/cluster/protocol"
	"riscvmem/internal/run"
	"riscvmem/internal/service"
)

// startBatch starts a 1-device × n-workload batch in the background and
// returns channels carrying its outcome.
func startBatch(t *testing.T, coord *Coordinator, opt service.RequestOptions, specs ...string) (<-chan *service.Response, <-chan error) {
	t.Helper()
	workloads := make([]run.WorkloadSpec, len(specs))
	for i, s := range specs {
		workloads[i] = run.MustParseWorkloadSpec(s)
	}
	respCh := make(chan *service.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := coord.Service().Batch(context.Background(), service.BatchRequest{
			Devices:   []string{"MangoPi"},
			Workloads: workloads,
			Options:   opt,
		})
		respCh <- resp
		errCh <- err
	}()
	return respCh, errCh
}

// mustPoll polls worker id and requires an assignment.
func mustPoll(t *testing.T, coord *Coordinator, id string) *protocol.Assignment {
	t.Helper()
	poll, err := coord.Poll(context.Background(), protocol.PollRequest{WorkerID: id, WaitMS: 5000})
	if err != nil || poll.Assignment == nil {
		t.Fatalf("poll %s: assignment=%v err=%v", id, poll.Assignment, err)
	}
	return poll.Assignment
}

// TestClusterQuarantineAfterRepeatedLoss drives the failure budget by hand:
// a two-cell batch where one cell's worker is lost on every attempt. After
// MaxCellAttempts losses the cell must complete as a quarantine error row
// while the sibling cell's (already accepted) row is untouched — the batch
// degrades per-cell instead of livelocking on requeue.
func TestClusterQuarantineAfterRepeatedLoss(t *testing.T) {
	ctx := context.Background()
	coord := New(Options{MaxCellAttempts: 3, Logf: t.Logf})
	defer coord.Close()

	if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: "v1"}); err != nil {
		t.Fatalf("register v1: %v", err)
	}
	respCh, errCh := startBatch(t, coord, service.RequestOptions{},
		"stream:test=COPY,elems=64,reps=1", "stream:test=SCALE,elems=64,reps=1")

	asn := mustPoll(t, coord, "v1")
	if len(asn.Cells) != 2 {
		t.Fatalf("assignment has %d cells, want 2", len(asn.Cells))
	}
	// The sibling (index 0) completes before the loss; it must never be
	// requeued or recharged afterwards.
	sibling := protocol.Row{Index: 0, Result: run.Result{Workload: "stream", Device: "MangoPi", Seconds: 1}}
	if _, err := coord.ReturnRows(ctx, protocol.RowReturn{
		WorkerID: "v1", AssignmentID: asn.ID, Rows: []protocol.Row{sibling},
	}); err != nil {
		t.Fatalf("return sibling: %v", err)
	}
	if _, err := coord.DrainWorker(ctx, protocol.DrainRequest{WorkerID: "v1"}); err != nil {
		t.Fatalf("drain v1: %v", err)
	}

	// Attempts 2 and 3: each new incarnation inherits only the poison cell,
	// with the attempt count echoed on the wire, and is lost in turn.
	for attempt := 1; attempt <= 2; attempt++ {
		id := "v" + string(rune('1'+attempt))
		if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: id}); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
		asn := mustPoll(t, coord, id)
		if len(asn.Cells) != 1 || asn.Cells[0].Index != 1 {
			t.Fatalf("attempt %d: assignment %+v, want only cell 1", attempt, asn.Cells)
		}
		if asn.Cells[0].Attempts != attempt {
			t.Errorf("attempt %d: cell carries Attempts=%d, want %d", attempt, asn.Cells[0].Attempts, attempt)
		}
		if _, err := coord.DrainWorker(ctx, protocol.DrainRequest{WorkerID: id}); err != nil {
			t.Fatalf("drain %s: %v", id, err)
		}
	}

	resp, err := <-respCh, <-errCh
	if err != nil {
		t.Fatalf("batch after quarantine: %v", err)
	}
	if resp.Results[0].Result != sibling.Result || resp.Results[0].Error != "" {
		t.Errorf("sibling row %+v, want the accepted row unchanged", resp.Results[0])
	}
	wantErr := service.QuarantinedRowError(3)
	if resp.Results[1].Error != wantErr {
		t.Errorf("poison row error %q, want %q", resp.Results[1].Error, wantErr)
	}
	if len(resp.Errors) != 1 || resp.Errors[0] != wantErr {
		t.Errorf("response errors %v, want exactly the quarantine error", resp.Errors)
	}

	coord.mu.Lock()
	quarantined, accepted, failures := coord.cellsQuarantined, coord.rowsAccepted, coord.cellFailures
	coord.mu.Unlock()
	if quarantined != 1 {
		t.Errorf("cellsQuarantined = %d, want 1", quarantined)
	}
	if accepted != 2 {
		t.Errorf("rowsAccepted = %d, want 2 (sibling + quarantine row)", accepted)
	}
	if failures != 0 {
		t.Errorf("cellFailures = %d, want 0 (losses, not contained failures)", failures)
	}
}

// TestClusterLossSparesBystanders drives a poison cell and an innocent
// sibling by hand, one cell per assignment. Each round a fresh worker takes
// everything it is offered; it is lost (drained) whenever it holds the
// poison, and otherwise completes what it holds. The first loss catches both
// cells in flight, which says nothing about which one is guilty: neither is
// charged, and each is retried alone on an idle worker. The innocent then
// completes, and the poison, lost alone three times, is the one quarantine.
// Were every cell in flight charged, the innocent would follow the poison
// and be quarantined with it after three shared losses.
func TestClusterLossSparesBystanders(t *testing.T) {
	ctx := context.Background()
	coord := New(Options{MaxCellAttempts: 3, AssignmentCells: 1, Logf: t.Logf})
	defer coord.Close()

	respCh, errCh := startBatch(t, coord, service.RequestOptions{},
		"stream:test=COPY,elems=64,reps=1", "stream:test=SCALE,elems=64,reps=1")
	const poisonIdx = 1
	innocent := protocol.Row{Index: 0, Result: run.Result{Workload: "stream", Device: "MangoPi", Seconds: 1}}

	sharedLosses := 0
	for round := 1; round <= 10; round++ {
		id := fmt.Sprintf("w%d", round)
		if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: id}); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
		offered := false
		for lost := false; !lost; {
			// Take everything on offer; the very first poll waits for the
			// batch to be scheduled.
			var held []*protocol.Assignment
			for {
				var wait int64
				if round == 1 && !offered {
					wait = 5000
				}
				poll, err := coord.Poll(ctx, protocol.PollRequest{WorkerID: id, WaitMS: wait})
				if err != nil {
					t.Fatalf("poll %s: %v", id, err)
				}
				if poll.Assignment == nil {
					break
				}
				held = append(held, poll.Assignment)
				offered = true
			}
			if len(held) == 0 {
				break
			}
			cells, poisoned := 0, false
			for _, asn := range held {
				for _, cell := range asn.Cells {
					cells++
					poisoned = poisoned || cell.Index == poisonIdx
				}
			}
			if poisoned {
				if cells > 1 {
					sharedLosses++
				}
				if _, err := coord.DrainWorker(ctx, protocol.DrainRequest{WorkerID: id}); err != nil {
					t.Fatalf("drain %s: %v", id, err)
				}
				lost = true
				continue
			}
			for _, asn := range held {
				if _, err := coord.ReturnRows(ctx, protocol.RowReturn{
					WorkerID: id, AssignmentID: asn.ID, Rows: []protocol.Row{innocent}, Done: true,
				}); err != nil {
					t.Fatalf("return innocent row: %v", err)
				}
			}
		}
		if !offered {
			break // nothing left to hand out: the batch has settled
		}
	}

	resp, err := <-respCh, <-errCh
	if err != nil {
		t.Fatalf("batch with a poison cell: %v", err)
	}
	if resp.Results[0].Result != innocent.Result || resp.Results[0].Error != "" {
		t.Errorf("innocent row %+v, want the row its worker returned", resp.Results[0])
	}
	if got, want := resp.Results[poisonIdx].Error, service.QuarantinedRowError(3); got != want {
		t.Errorf("poison row error %q, want %q", got, want)
	}
	if sharedLosses != 1 {
		t.Errorf("the poison was lost beside another cell %d times, want once: a suspect is retried alone", sharedLosses)
	}

	coord.mu.Lock()
	quarantined, accepted := coord.cellsQuarantined, coord.rowsAccepted
	coord.mu.Unlock()
	if quarantined != 1 {
		t.Errorf("cellsQuarantined = %d, want exactly 1 (the poison)", quarantined)
	}
	if accepted != 2 {
		t.Errorf("rowsAccepted = %d, want 2 (innocent row + quarantine row)", accepted)
	}
}

// TestClusterFailureRowRequeueAndBudget pins the contained-cell-failure
// path: a Failed row is never delivered to the client — it charges the
// cell's budget and requeues it; after the budget is spent the cell is
// quarantined with the last failure appended as the cause.
func TestClusterFailureRowRequeueAndBudget(t *testing.T) {
	ctx := context.Background()
	coord := New(Options{MaxCellAttempts: 3, Logf: t.Logf})
	defer coord.Close()

	if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: "a"}); err != nil {
		t.Fatalf("register: %v", err)
	}
	respCh, errCh := startBatch(t, coord, service.RequestOptions{}, "stream:test=COPY,elems=64,reps=1")

	for attempt := 1; attempt <= 3; attempt++ {
		asn := mustPoll(t, coord, "a")
		if got := asn.Cells[0].Attempts; got != attempt-1 {
			t.Errorf("attempt %d: cell carries Attempts=%d, want %d", attempt, got, attempt-1)
		}
		ack, err := coord.ReturnRows(ctx, protocol.RowReturn{
			WorkerID: "a", AssignmentID: asn.ID,
			Rows: []protocol.Row{{Index: 0, Failed: true, Error: "cell failed on worker a: panic: boom"}},
			Done: true,
		})
		if err != nil {
			t.Fatalf("attempt %d: return failure row: %v", attempt, err)
		}
		if ack.Accepted != 0 {
			t.Errorf("attempt %d: failure row counted as accepted (%d)", attempt, ack.Accepted)
		}
	}

	resp, err := <-respCh, <-errCh
	if err != nil {
		t.Fatalf("batch after failure-row quarantine: %v", err)
	}
	got := resp.Results[0].Error
	if !strings.HasPrefix(got, service.QuarantinedRowError(3)) {
		t.Errorf("row error %q, want prefix %q", got, service.QuarantinedRowError(3))
	}
	if !strings.Contains(got, "panic: boom") {
		t.Errorf("row error %q does not carry the failure cause", got)
	}

	coord.mu.Lock()
	failures, quarantined, requeued := coord.cellFailures, coord.cellsQuarantined, coord.cellsRequeued
	coord.mu.Unlock()
	if failures != 3 {
		t.Errorf("cellFailures = %d, want 3", failures)
	}
	if quarantined != 1 {
		t.Errorf("cellsQuarantined = %d, want 1", quarantined)
	}
	if requeued != 2 {
		t.Errorf("cellsRequeued = %d, want 2 (third failure quarantines instead)", requeued)
	}
}

// TestClusterDispatchDeadlineDegrades pins the no-hang contract with no
// workers at all: a batch whose deadline expires returns promptly with
// every unfinished row carrying an explicit deadline error — not a
// transport error, and never a block in await.
func TestClusterDispatchDeadlineDegrades(t *testing.T) {
	coord := New(Options{Logf: t.Logf})
	defer coord.Close()

	start := time.Now()
	resp, err := coord.Service().Batch(context.Background(), service.BatchRequest{
		Devices: []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{
			run.MustParseWorkloadSpec("stream:test=COPY,elems=64,reps=1"),
			run.MustParseWorkloadSpec("stream:test=SCALE,elems=64,reps=1"),
		},
		Options: service.RequestOptions{TimeoutMS: 200},
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline-expired batch errored (%v); want a degraded response", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("degraded response took %s; the deadline did not bound the wait", elapsed)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("degraded batch: %d rows, want 2", len(resp.Results))
	}
	for i, row := range resp.Results {
		if row.Error != service.DeadlineRowError() {
			t.Errorf("row %d error %q, want %q", i, row.Error, service.DeadlineRowError())
		}
	}
	if len(resp.Errors) != 2 {
		t.Errorf("response errors %v, want one per unfinished row", resp.Errors)
	}

	coord.mu.Lock()
	expired := coord.dispatchesExpired
	coord.mu.Unlock()
	if expired != 1 {
		t.Errorf("dispatchesExpired = %d, want 1", expired)
	}
}

// TestClusterSweepDeadlineReturnsError pins the sweep flavor of deadline
// degradation: a torn grid has no meaningful base-relative deltas, so the
// sweep surfaces the standalone path's wholesale ExecutionError — promptly,
// never a hang.
func TestClusterSweepDeadlineReturnsError(t *testing.T) {
	coord := New(Options{Logf: t.Logf})
	defer coord.Close()

	start := time.Now()
	_, err := coord.Service().Sweep(context.Background(), service.SweepRequest{
		Device:    "MangoPi",
		Axes:      []string{"l2=base,128KiB"},
		Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("stream:test=COPY,elems=64,reps=1")},
		Options:   service.RequestOptions{TimeoutMS: 200},
	})
	if time.Since(start) > 5*time.Second {
		t.Error("sweep deadline did not bound the wait")
	}
	var exec *service.ExecutionError
	if !errors.As(err, &exec) {
		t.Fatalf("deadline-expired sweep returned %v, want *service.ExecutionError", err)
	}
	if !strings.Contains(err.Error(), service.DeadlineRowError()) {
		t.Errorf("sweep error %q does not carry the deadline row error", err)
	}
	// Two cells were open; a 4096-cell grid must not repeat the text 4096×.
	if msg := err.Error(); strings.Contains(msg, "\n") || strings.Count(msg, service.DeadlineRowError()) != 1 {
		t.Errorf("sweep error %q repeats the deadline text per open cell, want one line", msg)
	}
}

// TestClusterLeaseBoundary pins the lease comparison at its edge: a
// heartbeat arriving exactly at the lease boundary keeps the worker alive
// (the contract is "silent for LONGER than the lease"); one nanosecond past
// it, the worker is lost.
func TestClusterLeaseBoundary(t *testing.T) {
	ctx := context.Background()
	// Hour-scale intervals so the background janitor cannot race the
	// hand-driven expiry below.
	coord := New(Options{HeartbeatInterval: time.Hour, Logf: t.Logf})
	defer coord.Close()
	if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: "edge"}); err != nil {
		t.Fatalf("register: %v", err)
	}

	// Drive expiry with crafted "now" instants relative to the recorded
	// beat (rather than backdating the beat itself, which would race the
	// real janitor's own ticks).
	coord.mu.Lock()
	beat := coord.workers["edge"].lastBeat
	coord.mu.Unlock()

	coord.expire(beat.Add(coord.opt.Lease))
	if coord.Workers() != 1 {
		t.Fatal("worker lost with its heartbeat exactly at the lease boundary")
	}

	coord.expire(beat.Add(coord.opt.Lease + time.Nanosecond))
	if coord.Workers() != 0 {
		t.Fatal("worker kept past its lease")
	}
	coord.mu.Lock()
	lost := coord.workersLost
	coord.mu.Unlock()
	if lost != 1 {
		t.Errorf("workersLost = %d, want 1", lost)
	}
}

// TestClusterReregisterRacesReturnRows pins the incarnation race: a worker
// re-registers (for example after a heartbeat's Reregister) while a
// ReturnRows for its previous incarnation's assignment is still in flight.
// The stale return must be revoked — not accepted, not dropped silently —
// and the cell must complete exactly once through the new incarnation.
func TestClusterReregisterRacesReturnRows(t *testing.T) {
	ctx := context.Background()
	coord := New(Options{Logf: t.Logf})
	defer coord.Close()

	if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: "a"}); err != nil {
		t.Fatalf("register: %v", err)
	}
	respCh, errCh := startBatch(t, coord, service.RequestOptions{}, "stream:test=COPY,elems=64,reps=1")
	oldAsn := mustPoll(t, coord, "a")

	// The re-registration lands first: the old incarnation's assignment is
	// revoked and its cell requeued onto the fresh incarnation.
	if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: "a"}); err != nil {
		t.Fatalf("re-register: %v", err)
	}

	// Now the stale in-flight return arrives, quoting the old assignment.
	staleRow := protocol.Row{Index: 0, Result: run.Result{Workload: "stale", Device: "stale", Seconds: 9}}
	ack, err := coord.ReturnRows(ctx, protocol.RowReturn{
		WorkerID: "a", AssignmentID: oldAsn.ID,
		Rows: []protocol.Row{staleRow}, Done: true,
	})
	if err != nil {
		t.Fatalf("stale return: %v", err)
	}
	if !ack.Revoked || ack.Accepted != 0 {
		t.Fatalf("stale return ack %+v, want revoked with 0 accepted", ack)
	}

	// The new incarnation completes the requeued cell; its row is the one
	// the client sees, delivered exactly once.
	newAsn := mustPoll(t, coord, "a")
	if newAsn.ID == oldAsn.ID {
		t.Fatal("new incarnation handed the revoked assignment ID")
	}
	if newAsn.Cells[0].Attempts != 1 {
		t.Errorf("requeued cell carries Attempts=%d, want 1 (charged for the lost incarnation)", newAsn.Cells[0].Attempts)
	}
	goodRow := protocol.Row{Index: 0, Result: run.Result{Workload: "stream", Device: "MangoPi", Seconds: 1.5}}
	ack, err = coord.ReturnRows(ctx, protocol.RowReturn{
		WorkerID: "a", AssignmentID: newAsn.ID,
		Rows: []protocol.Row{goodRow}, Done: true,
	})
	if err != nil || ack.Accepted != 1 || ack.Revoked {
		t.Fatalf("good return: ack %+v err=%v, want 1 accepted", ack, err)
	}

	resp, err := <-respCh, <-errCh
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Result != goodRow.Result {
		t.Fatalf("batch result %+v, want the new incarnation's row", resp.Results)
	}
	coord.mu.Lock()
	accepted, revoked := coord.rowsAccepted, coord.rowsRevoked
	coord.mu.Unlock()
	if accepted != 1 || revoked != 1 {
		t.Errorf("rowsAccepted=%d rowsRevoked=%d, want 1/1 (no drop, no double delivery)", accepted, revoked)
	}
}

// TestReRegistrationKeepsShard pins what a stable -worker-id promises: a
// worker that restarts inside its lease re-registers under the same ID, and
// the cells queued for the old incarnation — the ones its disk tier may
// already hold — stay on that ID instead of being pushed onto the other
// workers a moment before it rejoins.
func TestReRegistrationKeepsShard(t *testing.T) {
	ctx := context.Background()
	coord := New(Options{Logf: t.Logf})
	defer coord.Close()
	for _, id := range []string{"a", "b"} {
		if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: id}); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	var specs []string
	for _, elems := range []string{"64", "128", "256", "512", "1024", "2048", "4096", "8192"} {
		specs = append(specs, "stream:test=COPY,reps=1,elems="+elems, "stream:test=TRIAD,reps=1,elems="+elems)
	}
	respCh, errCh := startBatch(t, coord, service.RequestOptions{}, specs...)
	queued := func() (a, b int) {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return len(coord.workers["a"].queue), len(coord.workers["b"].queue)
	}
	waitFor(t, "the batch's cells to be queued", func() bool {
		a, b := queued()
		return a+b == len(specs)
	})
	wantA, wantB := queued()
	if wantA == 0 || wantB == 0 {
		t.Fatalf("cells queued a=%d b=%d: both workers must own some for the test to mean anything", wantA, wantB)
	}

	coord.mu.Lock()
	old := coord.workers["a"]
	coord.mu.Unlock()
	if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: "a"}); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	coord.mu.Lock()
	replaced := coord.workers["a"] != old
	coord.mu.Unlock()
	if !replaced {
		t.Fatal("re-registration kept the old incarnation")
	}
	if a, b := queued(); a != wantA || b != wantB {
		t.Errorf("after re-registering a: queued a=%d b=%d, want a=%d b=%d (a's shard stays with a)", a, b, wantA, wantB)
	}
	coord.Close() // nobody polls: end the batch before the test's logger goes away
	<-respCh
	<-errCh
}
