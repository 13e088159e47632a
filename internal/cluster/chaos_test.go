//go:build faultinject

package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"riscvmem/internal/cluster/protocol"
	"riscvmem/internal/faultinject"
	"riscvmem/internal/faultinject/chaos"
	"riscvmem/internal/leakcheck"
	"riscvmem/internal/run"
	"riscvmem/internal/service"
)

// The poison workload: a stall that never releases, registered once for
// the whole test binary (the workload registry is process-wide). Each
// execution signals poisonStarted; honorCtx makes it unwind cleanly when
// its worker is killed, so the kill is observed as a worker loss — the
// budget's charge — not as a stuck goroutine.
var poisonStarted = make(chan struct{}, 16)

func init() {
	run.MustRegister(chaos.Stall("chaospoison", poisonStarted, make(chan struct{}), true))
}

// chaosSweep is the grid the chaos tests replay: small enough to converge
// fast under injected faults, varied enough that cells spread across both
// workers' shards.
func chaosSweep() service.SweepRequest {
	return service.SweepRequest{
		Device: "MangoPi",
		Axes:   []string{"l2=base,128KiB", "maxinflight=base,2"},
		Workloads: []run.WorkloadSpec{
			run.MustParseWorkloadSpec("stream:test=TRIAD,elems=2048,reps=1"),
			run.MustParseWorkloadSpec("transpose:variant=Naive,n=96"),
		},
	}
}

// standaloneSweep computes the ground-truth response for a chaos grid.
func standaloneSweep(t *testing.T, req service.SweepRequest) *service.Response {
	t.Helper()
	want, err := service.New(service.Options{}).Sweep(context.Background(), req)
	if err != nil {
		t.Fatalf("standalone Sweep: %v", err)
	}
	return want
}

// assertSweepIdentical requires the clustered rows to match the standalone
// rows bit for bit, and the request-scoped cache stats to never count more
// cells than the grid holds (requeued work must not be double-counted; an
// undercount is legal — a dead worker's final delta dies with it).
func assertSweepIdentical(t *testing.T, got, want *service.Response, totalJobs uint64) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("cluster sweep: %d rows, standalone %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		if !reflect.DeepEqual(got.Results[i], want.Results[i]) {
			t.Errorf("row %d: cluster %+v != standalone %+v", i, got.Results[i], want.Results[i])
		}
	}
	if n := got.Cache.RequestHits + got.Cache.RequestMisses; n > totalJobs {
		t.Errorf("cache stats count %d cells, more than the %d jobs: requeued work double-counted", n, totalJobs)
	}
}

// TestChaosKillWorkerMidSweep is the faultinject build of the worker-loss
// drill, with the goroutine-leak assertion wrapped around the whole
// cluster lifecycle: kill one of two workers mid-sweep, lose no rows,
// leak no goroutines.
func TestChaosKillWorkerMidSweep(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	assertNoLeaks := leakcheck.Check(t)

	req := chaosSweep()
	want := standaloneSweep(t, req)
	plan, err := planSweep(req.Device, req.Axes, req.Workloads, 0)
	if err != nil {
		t.Fatalf("planSweep: %v", err)
	}

	coord := New(Options{AssignmentCells: 2, Logf: t.Logf})
	w1 := startWorker(t, coord, "w1", func(o *WorkerOptions) { o.FlushRows = 1; o.MaxConcurrent = 1 })
	w2 := startWorker(t, coord, "w2", func(o *WorkerOptions) { o.FlushRows = 1; o.MaxConcurrent = 1 })
	waitForWorkers(t, coord, 2)

	respCh := make(chan *service.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := coord.Service().Sweep(context.Background(), req)
		respCh <- resp
		errCh <- err
	}()

	// Kill w1 as soon as the sweep is moving.
	deadline := time.Now().Add(10 * time.Second)
	for {
		coord.mu.Lock()
		moving := coord.rowsAccepted > 0
		coord.mu.Unlock()
		if moving || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	w1.stop()

	resp, err := <-respCh, <-errCh
	if err != nil {
		t.Fatalf("cluster sweep after worker kill: %v", err)
	}
	assertSweepIdentical(t, resp, want, uint64(len(plan.jobs)))

	coord.mu.Lock()
	accepted := coord.rowsAccepted
	coord.mu.Unlock()
	if accepted != uint64(len(plan.jobs)) {
		t.Errorf("rows accepted %d, want exactly %d (one per job)", accepted, len(plan.jobs))
	}

	w2.stop()
	coord.Close()
	assertNoLeaks()
}

// TestChaosHeartbeatBlackhole blackholes the heartbeat channel entirely:
// every beat fails at the coordinator, so workers are repeatedly declared
// lost mid-work — and repeatedly rejoin through the poll path's Reregister,
// since registration (unlike heartbeats) still works. The sweep must still
// complete bit-identical, every row delivered exactly once.
func TestChaosHeartbeatBlackhole(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	assertNoLeaks := leakcheck.Check(t)

	faultinject.Set(faultinject.ClusterHeartbeat, faultinject.AlwaysFail(errors.New("injected: heartbeat blackhole")))

	req := chaosSweep()
	want := standaloneSweep(t, req)
	plan, err := planSweep(req.Device, req.Axes, req.Workloads, 0)
	if err != nil {
		t.Fatalf("planSweep: %v", err)
	}

	// A lease far shorter than the sweep, so workers are guaranteed to be
	// declared lost (and to recover via Reregister) while work is in
	// flight. Their memo stores survive re-registration, so every round
	// trip makes progress and the sweep converges.
	coord := New(Options{
		HeartbeatInterval: 5 * time.Millisecond,
		Lease:             40 * time.Millisecond,
		AssignmentCells:   2,
		Logf:              t.Logf,
	})
	w1 := startWorker(t, coord, "w1", func(o *WorkerOptions) { o.FlushRows = 1; o.PollWait = 20 * time.Millisecond })
	w2 := startWorker(t, coord, "w2", func(o *WorkerOptions) { o.FlushRows = 1; o.PollWait = 20 * time.Millisecond })
	waitForWorkers(t, coord, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := coord.Service().Sweep(ctx, req)
	if err != nil {
		t.Fatalf("cluster sweep under heartbeat blackhole: %v", err)
	}
	assertSweepIdentical(t, resp, want, uint64(len(plan.jobs)))

	if faultinject.Fired(faultinject.ClusterHeartbeat) == 0 {
		t.Error("heartbeat seam never fired: the blackhole was not exercised")
	}
	coord.mu.Lock()
	lost := coord.workersLost
	accepted := coord.rowsAccepted
	coord.mu.Unlock()
	if lost == 0 {
		t.Error("no worker was ever declared lost under a total heartbeat blackhole")
	}
	if accepted != uint64(len(plan.jobs)) {
		t.Errorf("rows accepted %d, want exactly %d (one per job) despite worker churn", accepted, len(plan.jobs))
	}

	w1.stop()
	w2.stop()
	coord.Close()
	assertNoLeaks()
}

// TestChaosRequeueFaultDivertsToPool injects a fault into the requeue path
// itself: when the draining worker's cells are requeued, the rerouting
// fails once, diverting the cells to the unassigned pool — where the
// surviving worker's next poll must pick them up. Delayed, never lost.
func TestChaosRequeueFaultDivertsToPool(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	assertNoLeaks := leakcheck.Check(t)

	faultinject.Set(faultinject.ClusterRequeue, faultinject.FailTimes(1, errors.New("injected: requeue fault")))

	ctx := context.Background()
	req := service.BatchRequest{
		Devices: []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{
			run.MustParseWorkloadSpec("stream:test=COPY,elems=2048,reps=1"),
			run.MustParseWorkloadSpec("transpose:variant=Naive,n=96"),
		},
	}
	want, err := service.New(service.Options{}).Batch(ctx, req)
	if err != nil {
		t.Fatalf("standalone Batch: %v", err)
	}

	coord := New(Options{Logf: t.Logf})

	// A hand-driven worker takes the whole batch, then drains without
	// returning anything — tripping the injected requeue fault.
	if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: "doomed"}); err != nil {
		t.Fatalf("register doomed: %v", err)
	}
	respCh := make(chan *service.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := coord.Service().Batch(ctx, req)
		respCh <- resp
		errCh <- err
	}()
	poll, err := coord.Poll(ctx, protocol.PollRequest{WorkerID: "doomed", WaitMS: 5000})
	if err != nil || poll.Assignment == nil {
		t.Fatalf("poll doomed: assignment=%v err=%v", poll.Assignment, err)
	}
	if _, err := coord.DrainWorker(ctx, protocol.DrainRequest{WorkerID: "doomed"}); err != nil {
		t.Fatalf("drain doomed: %v", err)
	}
	if faultinject.Fired(faultinject.ClusterRequeue) != 1 {
		t.Fatalf("requeue seam fired %d times, want 1", faultinject.Fired(faultinject.ClusterRequeue))
	}
	coord.mu.Lock()
	pooled := len(coord.unassigned)
	coord.mu.Unlock()
	if pooled != len(want.Results) {
		t.Fatalf("%d cells in the unassigned pool after requeue fault, want %d", pooled, len(want.Results))
	}

	// A real worker joins and must drain the pool through its polls.
	w := startWorker(t, coord, "rescue", nil)
	resp, err := <-respCh, <-errCh
	if err != nil {
		t.Fatalf("cluster batch after requeue fault: %v", err)
	}
	if len(resp.Results) != len(want.Results) {
		t.Fatalf("cluster batch: %d rows, standalone %d", len(resp.Results), len(want.Results))
	}
	for i := range resp.Results {
		if resp.Results[i].Result != want.Results[i].Result {
			t.Errorf("row %d: cluster %+v != standalone %+v", i, resp.Results[i].Result, want.Results[i].Result)
		}
	}

	w.stop()
	coord.Close()
	assertNoLeaks()
}

// TestChaosDispatchFaultDelaysAssignment injects failures at the dispatch
// seam: the first polls that would carry an assignment answer empty
// instead. The work must go out on a later poll — delayed, never lost.
func TestChaosDispatchFaultDelaysAssignment(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	assertNoLeaks := leakcheck.Check(t)

	faultinject.Set(faultinject.ClusterDispatch, faultinject.FailTimes(3, errors.New("injected: dispatch fault")))

	ctx := context.Background()
	req := service.BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("stream:test=COPY,elems=2048,reps=1")},
	}
	want, err := service.New(service.Options{}).Batch(ctx, req)
	if err != nil {
		t.Fatalf("standalone Batch: %v", err)
	}

	coord := New(Options{Logf: t.Logf})
	w := startWorker(t, coord, "w1", func(o *WorkerOptions) { o.PollWait = 50 * time.Millisecond })
	waitForWorkers(t, coord, 1)

	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	resp, err := coord.Service().Batch(cctx, req)
	if err != nil {
		t.Fatalf("cluster batch under dispatch fault: %v", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Result != want.Results[0].Result {
		t.Fatalf("cluster batch: %+v, want standalone %+v", resp.Results, want.Results)
	}
	if fired := faultinject.Fired(faultinject.ClusterDispatch); fired < 4 {
		t.Errorf("dispatch seam fired %d times, want ≥4 (3 injected failures + the delivering poll)", fired)
	}

	w.stop()
	coord.Close()
	assertNoLeaks()
}

// TestChaosPoisonCellQuarantine is the degraded-mode acceptance drill: one
// cell in a batch kills its worker on every attempt. The cluster must not
// retry it forever — after MaxCellAttempts worker losses the cell is
// quarantined, the batch completes within the request deadline with exactly
// one quarantined error row, and every innocent row is bit-identical to the
// standalone run.
func TestChaosPoisonCellQuarantine(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	assertNoLeaks := leakcheck.Check(t)

	// Drain stale start signals from any earlier run of this binary.
	for {
		select {
		case <-poisonStarted:
			continue
		default:
		}
		break
	}

	ctx := context.Background()
	innocents := []run.WorkloadSpec{
		run.MustParseWorkloadSpec("stream:test=COPY,elems=2048,reps=1"),
		run.MustParseWorkloadSpec("stream:test=TRIAD,elems=2048,reps=1"),
		run.MustParseWorkloadSpec("transpose:variant=Naive,n=96"),
	}
	want, err := service.New(service.Options{}).Batch(ctx, service.BatchRequest{
		Devices: []string{"MangoPi"}, Workloads: innocents,
	})
	if err != nil {
		t.Fatalf("standalone Batch: %v", err)
	}
	req := service.BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: append(append([]run.WorkloadSpec{}, innocents...), run.WorkloadSpec{Kernel: "chaospoison"}),
		Options:   service.RequestOptions{TimeoutMS: 60000},
	}
	poisonIdx := len(innocents) // one device: row index == workload index
	totalJobs := len(req.Workloads)

	coord := New(Options{MaxCellAttempts: 3, AssignmentCells: 1, Logf: t.Logf})
	tweak := func(o *WorkerOptions) { o.FlushRows = 1 }
	workers := map[string]*testWorker{
		"w1": startWorker(t, coord, "w1", tweak),
		"w2": startWorker(t, coord, "w2", tweak),
	}
	waitForWorkers(t, coord, 2)

	respCh := make(chan *service.Response, 1)
	errCh := make(chan error, 1)
	start := time.Now()
	go func() {
		resp, err := coord.Service().Batch(ctx, req)
		respCh <- resp
		errCh <- err
	}()

	// findOwner locates the worker currently executing the poison cell.
	findOwner := func(attempt int) string {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			coord.mu.Lock()
			for id, ws := range coord.workers {
				for _, asn := range ws.delivered {
					if _, ok := asn.cells[poisonIdx]; ok {
						coord.mu.Unlock()
						return id
					}
				}
			}
			coord.mu.Unlock()
			if time.Now().After(deadline) {
				t.Fatalf("attempt %d: poison cell never found in a delivered assignment", attempt)
			}
			time.Sleep(time.Millisecond)
		}
	}

	next := 3
	for kill := 1; kill <= 3; kill++ {
		select {
		case <-poisonStarted:
		case <-time.After(20 * time.Second):
			t.Fatalf("attempt %d: poison cell never started executing", kill)
		}
		owner := findOwner(kill)
		if kill < 3 {
			// Keep the fleet populated: a replacement joins before each of
			// the first two kills, so the poison always has somewhere to go.
			id := fmt.Sprintf("w%d", next)
			next++
			workers[id] = startWorker(t, coord, id, tweak)
		}
		t.Logf("attempt %d: poison running on %s, killing it", kill, owner)
		workers[owner].stop()
		delete(workers, owner)
	}

	resp, err := <-respCh, <-errCh
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cluster batch with poison cell: %v", err)
	}
	if elapsed >= 60*time.Second {
		t.Errorf("batch took %s, want completion within the 60s request deadline", elapsed)
	}
	if len(resp.Results) != totalJobs {
		t.Fatalf("cluster batch: %d rows, want %d", len(resp.Results), totalJobs)
	}
	for i := range innocents {
		if resp.Results[i].Result != want.Results[i].Result || resp.Results[i].Error != want.Results[i].Error {
			t.Errorf("innocent row %d: cluster %+v != standalone %+v", i, resp.Results[i], want.Results[i])
		}
	}
	poison := resp.Results[poisonIdx]
	if poison.Error != service.QuarantinedRowError(3) {
		t.Errorf("poison row error %q, want %q", poison.Error, service.QuarantinedRowError(3))
	}
	if poison.Result != (run.Result{}) {
		t.Errorf("poison row carries a result %+v alongside its quarantine error", poison.Result)
	}

	coord.mu.Lock()
	accepted, quarantined, expired := coord.rowsAccepted, coord.cellsQuarantined, coord.dispatchesExpired
	coord.mu.Unlock()
	if accepted != uint64(totalJobs) {
		t.Errorf("rowsAccepted = %d, want exactly %d (quarantine row included, nothing double-counted)", accepted, totalJobs)
	}
	if quarantined != 1 {
		t.Errorf("cellsQuarantined = %d, want exactly 1", quarantined)
	}
	if expired != 0 {
		t.Errorf("dispatchesExpired = %d, want 0 (quarantine must beat the deadline)", expired)
	}

	for _, w := range workers {
		w.stop()
	}
	coord.Close()
	assertNoLeaks()
}

// TestChaosBlackholedPollsDeadlineBounded blackholes every poll at the
// flaky transport: the worker is registered and heartbeating but can never
// fetch work. A batch with a request deadline must come back on time as a
// degraded 200-style response — every row an explicit deadline error —
// rather than blocking until the caller gives up.
func TestChaosBlackholedPollsDeadlineBounded(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	assertNoLeaks := leakcheck.Check(t)

	faultinject.Set(faultinject.ClusterSend, faultinject.AlwaysFail(errors.New("injected: poll blackhole")))

	coord := New(Options{Logf: t.Logf})
	flaky := NewFlakyTransport(coord, FlakyOptions{Verbs: []string{VerbPoll}})
	w := startWorker(t, flaky, "w1", func(o *WorkerOptions) { o.PollWait = 20 * time.Millisecond })
	waitForWorkers(t, coord, 1)

	req := service.BatchRequest{
		Devices: []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{
			run.MustParseWorkloadSpec("stream:test=COPY,elems=2048,reps=1"),
			run.MustParseWorkloadSpec("transpose:variant=Naive,n=96"),
		},
		Options: service.RequestOptions{TimeoutMS: 400},
	}
	start := time.Now()
	resp, err := coord.Service().Batch(context.Background(), req)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cluster batch under poll blackhole: %v (deadline must degrade, not error)", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("degraded response took %s, want deadline-bounded (~400ms)", elapsed)
	}
	if len(resp.Results) != len(req.Workloads) {
		t.Fatalf("degraded batch: %d rows, want %d", len(resp.Results), len(req.Workloads))
	}
	for i, row := range resp.Results {
		if row.Error != service.DeadlineRowError() {
			t.Errorf("row %d error %q, want %q", i, row.Error, service.DeadlineRowError())
		}
	}
	if sent, _ := flaky.Drops(); sent == 0 {
		t.Error("no poll was ever dropped: the blackhole was not exercised")
	}
	coord.mu.Lock()
	expired := coord.dispatchesExpired
	coord.mu.Unlock()
	if expired != 1 {
		t.Errorf("dispatchesExpired = %d, want 1", expired)
	}

	w.stop()
	coord.Close()
	assertNoLeaks()
}

// TestChaosRowsDropRetries drops the first two ReturnRows requests at the
// flaky transport. The worker's flush retry loop must redeliver: the third
// attempt lands, the batch matches standalone, and nothing is abandoned.
func TestChaosRowsDropRetries(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	assertNoLeaks := leakcheck.Check(t)

	faultinject.Set(faultinject.ClusterSend, faultinject.FailTimes(2, errors.New("injected: rows dropped")))

	ctx := context.Background()
	req := service.BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("stream:test=COPY,elems=2048,reps=1")},
	}
	want, err := service.New(service.Options{}).Batch(ctx, req)
	if err != nil {
		t.Fatalf("standalone Batch: %v", err)
	}

	coord := New(Options{Logf: t.Logf})
	flaky := NewFlakyTransport(coord, FlakyOptions{Verbs: []string{VerbRows}})
	w := startWorker(t, flaky, "w1", nil)
	waitForWorkers(t, coord, 1)

	resp, err := coord.Service().Batch(ctx, req)
	if err != nil {
		t.Fatalf("cluster batch under dropped returns: %v", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Result != want.Results[0].Result || resp.Results[0].Error != "" {
		t.Fatalf("cluster batch: %+v, want standalone %+v", resp.Results, want.Results)
	}
	if fired := faultinject.Fired(faultinject.ClusterSend); fired != 3 {
		t.Errorf("send seam fired %d times, want 3 (2 drops + the delivering retry)", fired)
	}
	if sent, _ := flaky.Drops(); sent != 2 {
		t.Errorf("flaky transport dropped %d sends, want 2", sent)
	}
	coord.mu.Lock()
	accepted := coord.rowsAccepted
	coord.mu.Unlock()
	if accepted != 1 {
		t.Errorf("rowsAccepted = %d, want exactly 1 despite retries", accepted)
	}

	w.stop()
	coord.Close()
	assertNoLeaks()
}
