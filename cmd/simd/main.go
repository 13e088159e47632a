// Command simd is the riscvmem daemon: a long-running HTTP server that
// executes simulation workloads described as data. It fronts one shared
// service.Service — a memoized, pooled runner — so identical cells across
// requests simulate exactly once, with per-request timeouts, queued
// admission with backpressure, optional per-client rate limits, an async
// job API and graceful drain.
//
// Usage:
//
//	simd [-mode standalone|coordinator|worker]
//	     [-addr :8471] [-maxinflight 4] [-maxqueue 0] [-maxjobs 4096]
//	     [-parallelism 0] [-timeout 60s] [-maxtimeout 5m] [-drain 30s]
//	     [-jobttl 5m] [-clientrate 0] [-clientburst 0]
//	     [-cache-dir DIR] [-cache-mem 65536]
//	     [-coordinator URL] [-worker-id ID] [-heartbeat 1s] [-lease 0]
//	     [-max-cell-attempts 3]
//
// The default mode, standalone, is the single-process daemon described
// below. The other two modes form a distributed control plane
// (internal/cluster) with the same client-facing wire protocol:
//
//   - coordinator: no simulation happens here. The process runs the same
//     service as a standalone daemon — the full endpoint table below,
//     queued admission, rate limits, async jobs, drain — over a cluster
//     executor instead of a local runner: every admitted request's cells
//     are sharded across registered workers by rendezvous hashing of
//     the memo store's own coordinates (device identity + workload cache
//     key) and its rows reassembled in job order. The
//     admission, timeout and drain flags apply as in standalone mode;
//     -parallelism, -cache-dir and -cache-mem do not (nothing executes or
//     is cached here). Workers register and poll over /cluster/v1/*;
//     a worker silent past its -lease is marked lost and its unfinished
//     cells are requeued onto the survivors. Each cell carries a failure
//     budget (-max-cell-attempts, default 3): a cell that keeps taking its
//     worker down with it is quarantined — completed as an explicit error
//     row while sibling cells finish normally — and a request whose
//     deadline expires returns the rows it has with per-cell deadline
//     errors instead of hanging. Responses are otherwise bit-identical
//     to a standalone daemon serving the same request.
//   - worker: wraps the ordinary Service (all flags above apply,
//     -cache-dir included) and executes cells assigned by the
//     -coordinator URL. -worker-id defaults to hostname+addr; keep it
//     stable across restarts to keep the worker's shard — and its
//     warm disk cache — intact. SIGTERM announces drain: unfinished cells
//     requeue immediately to surviving workers.
//
// Cluster quickstart (one coordinator, two workers):
//
//	simd -mode coordinator -addr :8470 &
//	simd -mode worker -addr :8471 -coordinator http://127.0.0.1:8470 &
//	simd -mode worker -addr :8472 -coordinator http://127.0.0.1:8470 &
//	curl -s localhost:8470/v1/batch -d '{"workloads":["stream/TRIAD"]}'
//
// With -cache-dir the memo cache gains a persistent disk tier: every
// computed result is content-addressed on disk under DIR, and a restarted
// daemon serves previously computed cells without re-simulating. The
// companion `memo` tool exports, imports, lists and garbage-collects the
// same directory. -cache-mem bounds the in-memory tier (entries, not
// bytes).
//
// Endpoints (all three modes; a coordinator adds /cluster/v1/* for its
// workers, reports "workers":N on /healthz, and shows scheduling series on
// /metrics where the other modes show their runner's cache and pool):
//
//	GET    /healthz        liveness probe (503 {"status":"draining"} during shutdown)
//	GET    /metrics        Prometheus metrics (cache tiers, admission, jobs, latency)
//	GET    /v1/devices     device presets
//	GET    /v1/workloads   kernels, parameter grammar, sweep axes
//	POST   /v1/batch       {"devices":[...], "workloads":[...]} cross-product
//	POST   /v1/sweep       {"device":..., "axes":[...], "workloads":[...]}
//	POST   /v1/jobs        {"batch":{...}} or {"sweep":{...}} → 202, poll the ID
//	GET    /v1/jobs        stored jobs, newest first
//	GET    /v1/jobs/{id}   job status plus rows accumulated so far (?after=N
//	                       returns only rows past the previous next_after)
//	DELETE /v1/jobs/{id}   request cancellation
//
// Workloads may be given as grammar strings ("stream:test=TRIAD,elems=65536",
// "transpose/Blocking") or as {"kernel":..., "params":{...}} objects:
//
//	curl -s localhost:8471/v1/batch -d '{
//	  "devices": ["MangoPi", "VisionFive"],
//	  "workloads": ["transpose:variant=Naive,n=512", "stream/TRIAD"]
//	}'
//
// On SIGTERM or SIGINT the daemon drains: /healthz flips to 503 so load
// balancers stop routing, no new work is admitted, and queued plus running
// work — async jobs included — finishes inside the -drain budget. Work
// still unfinished at the budget is cancelled and logged. A second signal
// forces immediate exit. A coordinator drains the same way, its workers
// still attached, and only then stops scheduling.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"riscvmem/internal/cluster"
	"riscvmem/internal/run"
	"riscvmem/internal/service"
)

// flags collects every command-line knob; which ones apply depends on -mode.
type flags struct {
	mode        string
	addr        string
	maxInFlight int
	maxQueue    int
	maxJobs     int
	parallelism int
	timeout     time.Duration
	maxTimeout  time.Duration
	drainBudget time.Duration
	jobTTL      time.Duration
	clientRate  float64
	clientBurst int
	cacheDir    string
	cacheMem    int
	coordinator     string
	workerID        string
	heartbeat       time.Duration
	lease           time.Duration
	maxCellAttempts int
}

func main() {
	var f flags
	flag.StringVar(&f.mode, "mode", "standalone", "standalone | coordinator | worker")
	flag.StringVar(&f.addr, "addr", ":8471", "listen address")
	flag.IntVar(&f.maxInFlight, "maxinflight", 4, "concurrently executing requests")
	flag.IntVar(&f.maxQueue, "maxqueue", 0, "requests waiting for a slot before 429; 0 = 2×maxinflight, -1 disables queueing")
	flag.IntVar(&f.maxJobs, "maxjobs", 4096, "maximum device×workload jobs per request")
	flag.IntVar(&f.parallelism, "parallelism", 0, "runner worker goroutines; 0 = host CPU count")
	flag.DurationVar(&f.timeout, "timeout", 60*time.Second, "default per-request execution timeout; 0 = none")
	flag.DurationVar(&f.maxTimeout, "maxtimeout", 5*time.Minute, "cap on request-supplied timeouts; 0 = none")
	flag.DurationVar(&f.drainBudget, "drain", 30*time.Second, "graceful-drain budget on SIGTERM before unfinished jobs are cancelled")
	flag.DurationVar(&f.jobTTL, "jobttl", 5*time.Minute, "how long finished async jobs stay retrievable")
	flag.Float64Var(&f.clientRate, "clientrate", 0, "per-client sustained requests/second (X-Client-ID); 0 disables rate limiting")
	flag.IntVar(&f.clientBurst, "clientburst", 0, "per-client burst size; 0 = max(1, clientrate)")
	flag.StringVar(&f.cacheDir, "cache-dir", "", "directory for the persistent result-cache tier; empty = memory-only")
	flag.IntVar(&f.cacheMem, "cache-mem", 0, "in-memory cache tier capacity in entries; 0 = default (65536)")
	flag.StringVar(&f.coordinator, "coordinator", "", "coordinator base URL (worker mode; required)")
	flag.StringVar(&f.workerID, "worker-id", "", "stable worker identity that cells are routed by (worker mode); default hostname+addr")
	flag.DurationVar(&f.heartbeat, "heartbeat", time.Second, "heartbeat interval advertised to workers (coordinator mode)")
	flag.DurationVar(&f.lease, "lease", 0, "worker liveness lease (coordinator mode); 0 = 3×heartbeat")
	flag.IntVar(&f.maxCellAttempts, "max-cell-attempts", 0, "per-cell failure budget before quarantine (coordinator mode); 0 = default (3)")
	flag.Parse()

	switch f.mode {
	case "standalone":
		runStandalone(f)
	case "coordinator":
		runCoordinator(f)
	case "worker":
		runWorker(f)
	default:
		fmt.Fprintf(os.Stderr, "simd: unknown -mode %q (want standalone, coordinator or worker)\n", f.mode)
		os.Exit(2)
	}
}

// newService builds the shared execution facade from the flags (standalone
// and worker modes).
func newService(f flags) *service.Service {
	store, err := run.OpenStore(f.cacheDir, f.cacheMem, log.Printf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd: opening cache dir:", err)
		os.Exit(1)
	}
	if f.cacheDir != "" {
		log.Printf("simd: persistent result cache at %s (version %s)", f.cacheDir, run.CacheVersion)
	}
	return service.New(service.Options{
		Parallelism:    f.parallelism,
		MaxInFlight:    f.maxInFlight,
		MaxQueue:       f.maxQueue,
		MaxJobs:        f.maxJobs,
		DefaultTimeout: f.timeout,
		MaxTimeout:     f.maxTimeout,
		JobTTL:         f.jobTTL,
		ClientRate:     f.clientRate,
		ClientBurst:    f.clientBurst,
		Store:          store,
		Logf:           log.Printf,
	})
}

// newServer wraps a handler with the daemon's standard server timeouts.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// serve starts the server and returns its fatal-error channel.
func serve(srv *http.Server, what string) <-chan error {
	errCh := make(chan error, 1)
	go func() {
		log.Printf("simd %s listening on %s", what, srv.Addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	return errCh
}

// drainService runs the service's graceful drain under the budget,
// force-exiting on a second signal, and logs the outcome.
func drainService(svc *service.Service, sig chan os.Signal, budget time.Duration) {
	svc.StartDrain()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), budget)
	drained := make(chan service.DrainReport, 1)
	go func() { drained <- svc.Drain(drainCtx) }()
	var rep service.DrainReport
	select {
	case rep = <-drained:
	case s := <-sig:
		log.Printf("simd: %s received again, forcing exit", s)
		os.Exit(1)
	}
	cancelDrain()
	if rep.Clean {
		log.Printf("simd: drained clean in %s", rep.Waited.Round(time.Millisecond))
	} else {
		log.Printf("simd: drain budget expired after %s: %d job(s) abandoned, %d request(s) still executing",
			rep.Waited.Round(time.Millisecond), len(rep.Abandoned), rep.InFlight)
	}
}

// shutdown closes the HTTP server's remaining (idle) connections.
func shutdown(srv *http.Server) {
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "simd: shutdown:", err)
		os.Exit(1)
	}
	log.Print("simd: exit")
}

// runStandalone is the classic single-process daemon.
func runStandalone(f flags) {
	svc := newService(f)
	srv := newServer(f.addr, service.NewHandler(svc))

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errCh := serve(srv, "")

	select {
	case s := <-sig:
		log.Printf("simd: %s received, draining (budget %s; signal again to force exit)", s, f.drainBudget)
		// Flip /healthz to 503 and stop admitting before anything else, so
		// load balancers route away while admitted work finishes.
		drainService(svc, sig, f.drainBudget)
		// The service is drained; Shutdown only has idle connections left.
		shutdown(srv)
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
}

// runCoordinator serves the cluster control plane; no simulation happens
// in this process.
func runCoordinator(f flags) {
	coord := cluster.New(cluster.Options{
		HeartbeatInterval: f.heartbeat,
		Lease:             f.lease,
		MaxJobs:           f.maxJobs,
		MaxCellAttempts:   f.maxCellAttempts,
		DefaultTimeout:    f.timeout,
		MaxTimeout:        f.maxTimeout,
		Logf:              log.Printf,
		Admission: cluster.Admission{
			MaxInFlight: f.maxInFlight,
			MaxQueue:    f.maxQueue,
			JobTTL:      f.jobTTL,
			ClientRate:  f.clientRate,
			ClientBurst: f.clientBurst,
		},
	})
	srv := newServer(f.addr, cluster.NewCoordinatorHandler(coord, log.Printf))

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errCh := serve(srv, "coordinator")

	select {
	case s := <-sig:
		log.Printf("simd: %s received, draining coordinator (budget %s; signal again to force exit)", s, f.drainBudget)
		// Drain the client-facing service while workers can still poll and
		// return rows, so admitted requests and async jobs complete. Then
		// Close: long polls unblock, so the connections Shutdown waits on
		// finish promptly.
		drainService(coord.Service(), sig, f.drainBudget)
		coord.Close()
		shutdown(srv)
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
}

// runWorker wraps the ordinary Service with a cluster worker agent. The
// worker's own HTTP endpoints stay up for /healthz, /metrics and direct
// requests.
func runWorker(f flags) {
	if f.coordinator == "" {
		fmt.Fprintln(os.Stderr, "simd: -mode worker requires -coordinator URL")
		os.Exit(2)
	}
	id := f.workerID
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = host + f.addr
	}
	svc := newService(f)
	worker, err := cluster.NewWorker(cluster.WorkerOptions{
		ID:            id,
		Addr:          f.addr,
		Service:       svc,
		API:           cluster.NewClient(f.coordinator),
		MaxConcurrent: f.maxInFlight,
		Logf:          log.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
	// The worker's /metrics page carries the service metrics plus the
	// agent's control-plane counters (registrations, abandoned returns,
	// contained cell failures), appended in the same text format.
	base := service.NewHandler(svc)
	handler := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		base.ServeHTTP(rw, r)
		if r.Method == http.MethodGet && r.URL.Path == "/metrics" {
			if err := worker.WriteMetrics(rw); err != nil {
				log.Printf("simd: writing worker metrics: %v", err)
			}
		}
	})
	srv := newServer(f.addr, handler)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errCh := serve(srv, "worker "+id)

	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() { workerDone <- worker.Run(ctx) }()

	select {
	case s := <-sig:
		log.Printf("simd: %s received, draining worker (signal again to force exit)", s)
		// Cancel the agent first: it announces drain so the coordinator
		// requeues unfinished cells onto surviving workers immediately.
		cancel()
		select {
		case <-workerDone:
		case s := <-sig:
			log.Printf("simd: %s received again, forcing exit", s)
			os.Exit(1)
		}
		drainService(svc, sig, f.drainBudget)
		shutdown(srv)
	case err := <-workerDone:
		cancel()
		fmt.Fprintln(os.Stderr, "simd: worker:", err)
		os.Exit(1)
	case err := <-errCh:
		cancel()
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
}
