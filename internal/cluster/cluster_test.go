package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"riscvmem/internal/cluster/protocol"
	"riscvmem/internal/run"
	"riscvmem/internal/service"
)

// oracleSpecs mirrors the service oracle's kernel set: every built-in
// kernel in every variant, at test-sized configurations.
func oracleSpecs() []run.WorkloadSpec {
	specStrs := []string{
		"stream:test=COPY,elems=4096,reps=1",
		"stream:test=SCALE,elems=4096,reps=1",
		"stream:test=SUM,elems=4096,reps=1",
		"stream:test=TRIAD,elems=4096,reps=1",
		"transpose:variant=Naive,n=128",
		"transpose:variant=Parallel,n=128",
		"transpose:variant=Blocking,n=128",
		"transpose:variant=Manual_blocking,n=128",
		"transpose:variant=Dynamic,n=128",
		"gblur:variant=Naive,w=64,h=48,c=3,f=5",
		"gblur:variant=Unit-stride,w=64,h=48,c=3,f=5",
		"gblur:variant=1D_kernels,w=64,h=48,c=3,f=5",
		"gblur:variant=Memory,w=64,h=48,c=3,f=5",
		"gblur:variant=Parallel,w=64,h=48,c=3,f=5",
	}
	specs := make([]run.WorkloadSpec, len(specStrs))
	for i, s := range specStrs {
		specs[i] = run.MustParseWorkloadSpec(s)
	}
	return specs
}

// sweepJobs is the job list of one sweep request, as planSweep derives it.
type sweepJobs struct{ jobs []run.Job }

// planSweep expands a sweep request through the planner both cluster sides
// share; the drills count accepted rows against its job list.
func planSweep(device string, axes []string, specs []run.WorkloadSpec, maxJobs int) (sweepJobs, error) {
	p, err := service.PlanSweep(service.SweepRequest{Device: device, Axes: axes, Workloads: specs}, maxJobs)
	if err != nil {
		return sweepJobs{}, err
	}
	return sweepJobs{p.Jobs}, nil
}

// testWorker is one in-process worker agent with its own Service (own
// runner, own memo store — exactly one simd -mode worker process).
type testWorker struct {
	id     string
	svc    *service.Service
	cancel context.CancelFunc
	done   chan struct{}
}

// startWorker launches a worker agent against the given coordinator API
// and returns it running. stop() cancels it (the drain path) and waits.
func startWorker(t testing.TB, api API, id string, tweak func(*WorkerOptions)) *testWorker {
	t.Helper()
	svc := service.New(service.Options{})
	opt := WorkerOptions{
		ID: id, Service: svc, API: api,
		MaxConcurrent: 2,
		PollWait:      250 * time.Millisecond,
		FlushRows:     4,
		Logf:          t.Logf,
	}
	if tweak != nil {
		tweak(&opt)
	}
	w, err := NewWorker(opt)
	if err != nil {
		t.Fatalf("NewWorker(%s): %v", id, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tw := &testWorker{id: id, svc: svc, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(tw.done)
		if err := w.Run(ctx); err != nil {
			t.Errorf("worker %s: Run: %v", id, err)
		}
	}()
	return tw
}

func (tw *testWorker) stop() {
	tw.cancel()
	<-tw.done
}

// waitForWorkers blocks until n workers are registered.
func waitForWorkers(t testing.TB, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Workers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered after 5s", c.Workers(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// postJSON round-trips one client request through the coordinator's HTTP
// front — the exact wire a real client uses.
func postJSON(t *testing.T, url string, req any) *service.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	httpResp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer httpResp.Body.Close()
	var resp service.Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatalf("POST %s: decoding (HTTP %d): %v", url, httpResp.StatusCode, err)
	}
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d", url, httpResp.StatusCode)
	}
	return &resp
}

// TestClusterBatchOracle pins a coordinator-routed batch — over real HTTP,
// two real workers — bit-identical to the standalone service over the full
// kernel × device cross-product, with every workload requested twice:
// the duplicate cells must be deduplicated cluster-wide (the consistent
// routing sends both copies to the same worker, whose memo dedups them), and
// a warm rerun must cause zero new simulations.
func TestClusterBatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full cross-product oracle")
	}
	ctx := context.Background()
	specs := oracleSpecs()
	doubled := append(append([]run.WorkloadSpec{}, specs...), specs...)
	req := service.BatchRequest{Workloads: doubled} // empty Devices = all presets

	standalone := service.New(service.Options{})
	want, err := standalone.Batch(ctx, req)
	if err != nil {
		t.Fatalf("standalone Batch: %v", err)
	}

	coord := New(Options{Logf: t.Logf})
	defer coord.Close()
	srv := httptest.NewServer(NewCoordinatorHandler(coord, t.Logf))
	defer srv.Close()
	client := NewClient(srv.URL)
	w1 := startWorker(t, client, "w1", nil)
	w2 := startWorker(t, client, "w2", nil)
	defer w2.stop()
	defer w1.stop()
	waitForWorkers(t, coord, 2)

	got := postJSON(t, srv.URL+"/v1/batch", req)
	if len(got.Results) != len(want.Results) {
		t.Fatalf("cluster batch: %d rows, standalone %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		if got.Results[i].Result != want.Results[i].Result {
			t.Errorf("row %d: cluster %+v != standalone %+v", i, got.Results[i].Result, want.Results[i].Result)
		}
		if got.Results[i].Error != want.Results[i].Error {
			t.Errorf("row %d: cluster error %q != standalone %q", i, got.Results[i].Error, want.Results[i].Error)
		}
	}

	// Cluster-wide dedup: of devices × (2 × kernels) cells, only the
	// distinct devices × kernels simulate — the duplicates are memo hits on
	// their owner — and the sum of the two workers' own runner misses
	// accounts for every distinct cell exactly once.
	distinct := uint64(len(want.Results)) / 2
	total := uint64(len(want.Results))
	if got.Cache.RequestMisses != distinct {
		t.Errorf("cold cluster batch: %d request misses, want %d (distinct cells)", got.Cache.RequestMisses, distinct)
	}
	if got.Cache.RequestHits != total-distinct {
		t.Errorf("cold cluster batch: %d request hits, want %d (duplicate cells)", got.Cache.RequestHits, total-distinct)
	}
	_, m1 := w1.svc.Runner().CacheStats()
	_, m2 := w2.svc.Runner().CacheStats()
	if m1+m2 != distinct {
		t.Errorf("worker runner misses %d+%d = %d, want %d: some cell simulated on both workers",
			m1, m2, m1+m2, distinct)
	}

	// Warm rerun: routing is stable, so every cell lands back on the
	// worker whose memo already holds it — zero new simulations anywhere.
	warm := postJSON(t, srv.URL+"/v1/batch", req)
	if warm.Cache.RequestMisses != 0 {
		t.Errorf("warm cluster batch: %d request misses, want 0", warm.Cache.RequestMisses)
	}
	if warm.Cache.RequestHits != total {
		t.Errorf("warm cluster batch: %d request hits, want %d", warm.Cache.RequestHits, total)
	}
	for i := range warm.Results {
		if warm.Results[i].Result != want.Results[i].Result {
			t.Errorf("warm row %d: %+v != standalone %+v", i, warm.Results[i].Result, want.Results[i].Result)
		}
	}
	if _, m := w1.svc.Runner().CacheStats(); m != m1 {
		t.Errorf("warm rerun: worker w1 simulated %d new cells, want 0", m-m1)
	}
	if _, m := w2.svc.Runner().CacheStats(); m != m2 {
		t.Errorf("warm rerun: worker w2 simulated %d new cells, want 0", m-m2)
	}
}

// TestClusterSweepOracle pins a coordinator-routed sweep — labels,
// speedups, bandwidth ratios, row order — bit-identical to the standalone
// service's sweep of the same grid.
func TestClusterSweepOracle(t *testing.T) {
	ctx := context.Background()
	req := service.SweepRequest{
		Device: "MangoPi",
		Axes:   []string{"l2=base,128KiB", "maxinflight=base,2"},
		Workloads: []run.WorkloadSpec{
			run.MustParseWorkloadSpec("stream:test=TRIAD,elems=4096,reps=1"),
			run.MustParseWorkloadSpec("transpose:variant=Blocking,n=128"),
		},
	}

	standalone := service.New(service.Options{})
	want, err := standalone.Sweep(ctx, req)
	if err != nil {
		t.Fatalf("standalone Sweep: %v", err)
	}

	coord := New(Options{Logf: t.Logf})
	defer coord.Close()
	srv := httptest.NewServer(NewCoordinatorHandler(coord, t.Logf))
	defer srv.Close()
	client := NewClient(srv.URL)
	w1 := startWorker(t, client, "w1", nil)
	w2 := startWorker(t, client, "w2", nil)
	defer w2.stop()
	defer w1.stop()
	waitForWorkers(t, coord, 2)

	got := postJSON(t, srv.URL+"/v1/sweep", req)
	if len(got.Results) != len(want.Results) {
		t.Fatalf("cluster sweep: %d rows, standalone %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		if !reflect.DeepEqual(got.Results[i], want.Results[i]) {
			t.Errorf("row %d: cluster %+v != standalone %+v", i, got.Results[i], want.Results[i])
		}
	}
	if got.Cache.RequestMisses != want.Cache.RequestMisses {
		t.Errorf("cluster sweep: %d request misses, standalone %d", got.Cache.RequestMisses, want.Cache.RequestMisses)
	}
}

// TestClusterExactlyOnceUnderRevocation drives the protocol by hand to pin
// the revocation contract without any timing: a worker takes an assignment,
// drains, and then tries to return rows — those rows must be rejected as
// revoked and its cache delta discarded, while the requeued cell's row from
// the new owner is accepted exactly once.
func TestClusterExactlyOnceUnderRevocation(t *testing.T) {
	ctx := context.Background()
	coord := New(Options{Logf: t.Logf})
	defer coord.Close()

	if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: "a"}); err != nil {
		t.Fatalf("register a: %v", err)
	}

	respCh := make(chan *service.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := coord.Service().Batch(ctx, service.BatchRequest{
			Devices:   []string{"MangoPi"},
			Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("stream:test=COPY,elems=64,reps=1")},
		})
		respCh <- resp
		errCh <- err
	}()

	poll, err := coord.Poll(ctx, protocol.PollRequest{WorkerID: "a", WaitMS: 5000})
	if err != nil || poll.Assignment == nil {
		t.Fatalf("poll a: assignment=%v err=%v", poll.Assignment, err)
	}
	if n := len(poll.Assignment.Cells); n != 1 {
		t.Fatalf("poll a: %d cells, want 1", n)
	}

	// The worker departs with the assignment outstanding: its cell is
	// requeued (no other worker yet → the unassigned pool) and the
	// assignment revoked.
	drain, err := coord.DrainWorker(ctx, protocol.DrainRequest{WorkerID: "a"})
	if err != nil {
		t.Fatalf("drain a: %v", err)
	}
	if drain.Requeued != 1 {
		t.Fatalf("drain a: requeued %d cells, want 1", drain.Requeued)
	}

	// The departed worker's late rows — and its cache delta — must be
	// rejected wholesale, or a cell could be double-delivered and
	// double-counted.
	staleRow := protocol.Row{Index: 0, Result: run.Result{Workload: "stale", Device: "stale", Seconds: 9}}
	ack, err := coord.ReturnRows(ctx, protocol.RowReturn{
		WorkerID: "a", AssignmentID: poll.Assignment.ID,
		Rows: []protocol.Row{staleRow}, Done: true,
		Cache: &protocol.CacheDelta{Misses: 99},
	})
	if err != nil {
		t.Fatalf("stale return: %v", err)
	}
	if !ack.Revoked || ack.Accepted != 0 {
		t.Fatalf("stale return: ack %+v, want revoked with 0 accepted", ack)
	}

	// A new worker joins, inherits the pooled cell, and its row is the one
	// the client sees.
	if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: "b"}); err != nil {
		t.Fatalf("register b: %v", err)
	}
	poll, err = coord.Poll(ctx, protocol.PollRequest{WorkerID: "b", WaitMS: 5000})
	if err != nil || poll.Assignment == nil {
		t.Fatalf("poll b: assignment=%v err=%v", poll.Assignment, err)
	}
	goodRow := protocol.Row{Index: 0, Result: run.Result{Workload: "stream", Device: "MangoPi", Seconds: 1.5}}
	ack, err = coord.ReturnRows(ctx, protocol.RowReturn{
		WorkerID: "b", AssignmentID: poll.Assignment.ID,
		Rows: []protocol.Row{goodRow}, Done: true,
		Cache: &protocol.CacheDelta{Hits: 0, Misses: 1},
	})
	if err != nil || ack.Accepted != 1 || ack.Revoked {
		t.Fatalf("good return: ack %+v err=%v, want 1 accepted", ack, err)
	}

	resp, err := <-respCh, <-errCh
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Result != goodRow.Result {
		t.Fatalf("batch result %+v, want the new owner's row %+v", resp.Results, goodRow.Result)
	}
	if resp.Cache.RequestMisses != 1 || resp.Cache.RequestHits != 0 {
		t.Fatalf("batch cache %+v: the revoked delta leaked in", resp.Cache)
	}

	coord.mu.Lock()
	accepted, revoked, requeued := coord.rowsAccepted, coord.rowsRevoked, coord.cellsRequeued
	coord.mu.Unlock()
	if accepted != 1 || revoked != 1 || requeued != 1 {
		t.Errorf("counters accepted=%d revoked=%d requeued=%d, want 1/1/1", accepted, revoked, requeued)
	}
}

// TestClusterLeaseExpiry pins the liveness half of the contract: a worker
// that takes an assignment and then falls silent is declared lost when its
// lease lapses, and its cell completes on a later-joining worker.
func TestClusterLeaseExpiry(t *testing.T) {
	ctx := context.Background()
	coord := New(Options{HeartbeatInterval: 10 * time.Millisecond, Lease: 60 * time.Millisecond, Logf: t.Logf})
	defer coord.Close()

	if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: "silent"}); err != nil {
		t.Fatalf("register: %v", err)
	}
	respCh := make(chan *service.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := coord.Service().Batch(ctx, service.BatchRequest{
			Devices:   []string{"MangoPi"},
			Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("stream:test=COPY,elems=64,reps=1")},
		})
		respCh <- resp
		errCh <- err
	}()
	poll, err := coord.Poll(ctx, protocol.PollRequest{WorkerID: "silent", WaitMS: 5000})
	if err != nil || poll.Assignment == nil {
		t.Fatalf("poll: assignment=%v err=%v", poll.Assignment, err)
	}

	// Never heartbeat: the janitor must declare the worker lost on its own.
	deadline := time.Now().Add(5 * time.Second)
	for {
		coord.mu.Lock()
		lost := coord.workersLost
		coord.mu.Unlock()
		if lost == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never declared lost after 5s of silence")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: "rescue"}); err != nil {
		t.Fatalf("register rescue: %v", err)
	}
	poll, err = coord.Poll(ctx, protocol.PollRequest{WorkerID: "rescue", WaitMS: 5000})
	if err != nil || poll.Assignment == nil {
		t.Fatalf("poll rescue: assignment=%v err=%v", poll.Assignment, err)
	}
	row := protocol.Row{Index: 0, Result: run.Result{Workload: "stream", Device: "MangoPi", Seconds: 2}}
	if _, err := coord.ReturnRows(ctx, protocol.RowReturn{
		WorkerID: "rescue", AssignmentID: poll.Assignment.ID,
		Rows: []protocol.Row{row}, Done: true,
	}); err != nil {
		t.Fatalf("return: %v", err)
	}
	resp, err := <-respCh, <-errCh
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Result != row.Result {
		t.Fatalf("batch result %+v, want the rescue worker's row", resp.Results)
	}
}

// TestClusterWorkerKillMidSweep kills one of two live workers in the middle
// of a sweep — the drain path a SIGTERM takes — and requires the sweep to
// complete with rows bit-identical to the standalone service: no row lost,
// none delivered twice.
func TestClusterWorkerKillMidSweep(t *testing.T) {
	ctx := context.Background()
	req := service.SweepRequest{
		Device: "VisionFive",
		Axes:   []string{"l2=base,64KiB,256KiB,512KiB", "maxinflight=base,2"},
		Workloads: []run.WorkloadSpec{
			run.MustParseWorkloadSpec("transpose:variant=Naive,n=128"),
			run.MustParseWorkloadSpec("gblur:variant=Naive,w=64,h=48,c=3,f=5"),
		},
	}
	standalone := service.New(service.Options{})
	want, err := standalone.Sweep(ctx, req)
	if err != nil {
		t.Fatalf("standalone Sweep: %v", err)
	}
	plan, err := planSweep(req.Device, req.Axes, req.Workloads, 0)
	if err != nil {
		t.Fatalf("planSweep: %v", err)
	}
	totalJobs := uint64(len(plan.jobs))

	// Small assignments + row-by-row streaming so the kill lands while
	// cells are genuinely outstanding on both workers.
	coord := New(Options{AssignmentCells: 2, Logf: t.Logf})
	defer coord.Close()
	workers := map[string]*testWorker{
		"w1": startWorker(t, coord, "w1", func(o *WorkerOptions) { o.FlushRows = 1; o.MaxConcurrent = 1 }),
		"w2": startWorker(t, coord, "w2", func(o *WorkerOptions) { o.FlushRows = 1; o.MaxConcurrent = 1 }),
	}
	defer func() {
		for _, w := range workers {
			w.stop()
		}
	}()
	waitForWorkers(t, coord, 2)

	respCh := make(chan *service.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := coord.Service().Sweep(ctx, req)
		respCh <- resp
		errCh <- err
	}()

	// Wait for the sweep to be genuinely in flight, then kill whichever
	// worker still holds unfinished cells (either, if both do).
	deadline := time.Now().Add(10 * time.Second)
	victim := ""
	for victim == "" {
		coord.mu.Lock()
		if coord.rowsAccepted > 0 {
			for id, ws := range coord.workers {
				n := len(ws.queue)
				for _, asn := range ws.delivered {
					n += len(asn.cells)
				}
				if n > 0 {
					victim = id
					break
				}
			}
		}
		started := coord.rowsAccepted > 0
		coord.mu.Unlock()
		if victim != "" || time.Now().After(deadline) {
			break
		}
		if started {
			// Rows flowed but nothing is outstanding: the sweep is ending;
			// nothing left to kill. The remaining assertions still hold.
			break
		}
		time.Sleep(time.Millisecond)
	}
	if victim != "" {
		t.Logf("killing worker %s mid-sweep", victim)
		workers[victim].stop()
	}

	resp, err := <-respCh, <-errCh
	if err != nil {
		t.Fatalf("cluster sweep after worker loss: %v", err)
	}
	if len(resp.Results) != len(want.Results) {
		t.Fatalf("cluster sweep: %d rows, standalone %d", len(resp.Results), len(want.Results))
	}
	for i := range resp.Results {
		if !reflect.DeepEqual(resp.Results[i], want.Results[i]) {
			t.Errorf("row %d: cluster %+v != standalone %+v", i, resp.Results[i], want.Results[i])
		}
	}

	coord.mu.Lock()
	accepted := coord.rowsAccepted
	requeued := coord.cellsRequeued
	coord.mu.Unlock()
	// Exactly-once: every job's row was accepted into the dispatch exactly
	// once, regardless of how many times its cell was handed out.
	if accepted != totalJobs {
		t.Errorf("rows accepted %d, want exactly %d (one per job)", accepted, totalJobs)
	}
	t.Logf("requeued %d cell(s) after kill", requeued)
	// Requeued cells must not be double-counted in the request's cache
	// stats: the revoked owner's delta is discarded, so the totals can
	// undercount but never exceed the job count.
	if got := resp.Cache.RequestHits + resp.Cache.RequestMisses; got > totalJobs {
		t.Errorf("cache stats count %d cells, more than the %d jobs: requeued work double-counted", got, totalJobs)
	}
}
