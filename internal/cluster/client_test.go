package cluster

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"riscvmem/internal/run"
	"riscvmem/internal/service"
)

// TestClientKeepsItsConnections counts the TCP connections a two-worker
// cluster opens over real HTTP. After a cold sweep, warm sweeps may open
// at most one connection per call a worker can have in flight at once —
// a bound that does not grow with the number of sweeps. A Client on
// http.DefaultTransport, which idles only 2 connections per host,
// re-dialed on most calls and fails this.
func TestClientKeepsItsConnections(t *testing.T) {
	const (
		maxConcurrent = 4
		warmSweeps    = 20
	)
	coord := New(Options{Logf: t.Logf})
	defer coord.Close()
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(NewCoordinatorHandler(coord, t.Logf))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	for _, id := range []string{"w1", "w2"} {
		w := startWorker(t, NewClient(srv.URL), id, func(o *WorkerOptions) { o.MaxConcurrent = maxConcurrent })
		defer w.stop()
	}
	waitForWorkers(t, coord, 2)

	req := service.SweepRequest{
		Device: "MangoPi",
		Axes:   []string{"l2=base,64KiB,128KiB,256KiB"},
		Workloads: []run.WorkloadSpec{
			run.MustParseWorkloadSpec("stream:test=COPY,elems=256,reps=1"),
			run.MustParseWorkloadSpec("stream:test=TRIAD,elems=512,reps=1"),
			run.MustParseWorkloadSpec("transpose:variant=Naive,n=16"),
			run.MustParseWorkloadSpec("transpose:variant=Blocking,n=32"),
			run.MustParseWorkloadSpec("gblur:variant=Naive,w=20,h=20,c=3,f=5"),
			run.MustParseWorkloadSpec("gblur:variant=Memory,w=24,h=20,c=3,f=5"),
			run.MustParseWorkloadSpec("stream:test=SUM,elems=1024,reps=1"),
			run.MustParseWorkloadSpec("transpose:variant=Dynamic,n=64"),
		},
	}
	postJSON(t, srv.URL+"/v1/sweep", req) // cold: simulates, sizes the pools
	cold := dials.Load()
	for i := 0; i < warmSweeps; i++ {
		if got := postJSON(t, srv.URL+"/v1/sweep", req); got.Cache.RequestMisses != 0 {
			t.Fatalf("warm sweep %d simulated %d cells", i, got.Cache.RequestMisses)
		}
	}
	// Per worker: a poll, a heartbeat and one row return per assignment.
	const bound = 2 * (maxConcurrent + 2)
	if extra := dials.Load() - cold; extra > bound {
		t.Errorf("%d warm sweeps dialed %d new connections, want at most %d (after %d for the cold sweep)",
			warmSweeps, extra, bound, cold)
	}
}
