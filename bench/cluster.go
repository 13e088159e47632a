package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"riscvmem/internal/cluster"
	"riscvmem/internal/machine"
	"riscvmem/internal/memostore"
	"riscvmem/internal/run"
	"riscvmem/internal/sweep"
)

// ---- cluster_sweep ----------------------------------------------------------

// clusterSweep posts warm sweeps to a coordinator whose two workers talk to
// it over real HTTP for all five verbs.
type clusterSweep struct {
	reqs    []request
	devices map[string]machine.Spec // sweep cells by their expanded name
	ops     int
}

var sweepAxes = []string{"l2=base,64KiB,128KiB,256KiB", "maxinflight=base,2,4,8"}

const sweepDevice = "MangoPi"

func sweepBody(specs []string) []byte {
	data, err := json.Marshal(struct {
		Device    string   `json:"device"`
		Axes      []string `json:"axes"`
		Workloads []string `json:"workloads"`
	}{sweepDevice, sweepAxes, specs})
	if err != nil {
		panic(err) // strings always marshal
	}
	return data
}

// expandSweep expands the benchmark's sweep grid with the program's own
// sweep.Expand.
func expandSweep() ([]sweep.Cell, error) {
	base, err := machine.ByName(sweepDevice)
	if err != nil {
		return nil, err
	}
	axes, err := sweep.ParseAxes(sweepAxes)
	if err != nil {
		return nil, err
	}
	return sweep.Expand(base, axes)
}

func newClusterSweep(seed uint64, tiny bool) (workload, error) {
	rng := newRNG(seed, 5)
	grid, err := expandSweep()
	if err != nil {
		return nil, err
	}
	w := &clusterSweep{devices: map[string]machine.Spec{}, ops: 100}
	nBodies := 8
	if tiny {
		w.ops, nBodies = 3, 2
	}
	for _, c := range grid {
		w.devices[c.Spec.Name] = c.Spec
	}
	// Sixteen small specs, seed-paired into eight two-workload sweeps. Every
	// seed sweeps the same 16 × 16 (cell, spec) keys — only the pairing
	// changes — so the workers' share of the cells, which the hash ring
	// decides per key, does not move with the seed.
	var pool []string
	for _, t := range []string{"COPY", "SCALE", "SUM", "TRIAD"} {
		for _, n := range []int{1024, 2048, 4096} {
			pool = append(pool, streamSpec(t, n, 1))
		}
	}
	for _, v := range []string{"Naive", "Blocking"} {
		for _, n := range []int{64, 128} {
			pool = append(pool, transposeSpec(v, n))
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for b := 0; b < nBodies; b++ {
		specs := pool[2*b : 2*b+2]
		var cells []cell // reply order: grid cells outermost, workloads innermost
		for _, c := range grid {
			for _, s := range specs {
				cells = append(cells, cell{c.Spec.Name, s})
			}
		}
		w.reqs = append(w.reqs, request{sweepBody(specs), cells})
	}
	return w, nil
}

func (w *clusterSweep) name() string { return "cluster_sweep" }
func (w *clusterSweep) why() string {
	return "warm 32-cell POST /v1/sweep to a coordinator with two workers on real HTTP: routing, dispatch, long-poll wake, row return and reassembly dominate; simulation is nil"
}
func (w *clusterSweep) opsPerBlock() int { return w.ops }
func (w *clusterSweep) cells() []cell    { return distinctCells(w.reqs) }
func (w *clusterSweep) resolve(name string) (machine.Spec, error) {
	spec, ok := w.devices[name]
	if !ok {
		return machine.Spec{}, fmt.Errorf("no sweep cell named %q", name)
	}
	return spec, nil
}

func (w *clusterSweep) setup(ctx context.Context, ref *reference, tr *tracer) (instance, error) {
	// Coordinator options are what cmd/simd -mode coordinator passes with
	// its flag defaults.
	coord := cluster.New(cluster.Options{
		HeartbeatInterval: time.Second,
		MaxJobs:           4096,
		DefaultTimeout:    60 * time.Second,
		MaxTimeout:        5 * time.Minute,
		Logf:              logf,
	})
	handler := cluster.NewCoordinatorHandler(coord, logf)
	if tr != nil {
		handler = tr.middleware(handler)
	}
	srv, err := listen(handler)
	if err != nil {
		coord.Close()
		return nil, err
	}
	inst := &servedInstance{
		client:  newOpClient(srv.addr, tr),
		path:    "/v1/sweep",
		request: func(i int) request { return w.reqs[i%len(w.reqs)] },
		expect:  func(c cell) run.Result { return ref.rows[c] },
		series: []string{
			"simd_cluster_cells_requeued_total",
			"simd_cluster_workers_lost_total",
			"simd_cluster_cells_quarantined_total",
		},
	}
	workerCtx, stopWorkers := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	// Teardown order matters: workers announce their drain to a live
	// coordinator, Close unblocks what is left, then the server goes.
	inst.closers = []func() error{
		srv.close,
		func() error { coord.Close(); return nil },
		func() error { stopWorkers(); workers.Wait(); return nil },
	}
	for _, id := range []string{"worker-a.bench.local:8471", "worker-b.bench.local:8471"} {
		var api cluster.API = cluster.NewClient(srv.url)
		store, err := run.OpenStore("", 0, logf)
		if err != nil {
			inst.close()
			return nil, err
		}
		var memo memostore.Store = store
		if tr != nil {
			traced := newTracedAPI(api, tr)
			inst.apis = append(inst.apis, traced)
			api, memo = traced, &tracedStore{inner: store, t: tr, parent: traced.current.Load}
		}
		svc := newService(memo)
		inst.runners = append(inst.runners, svc.Runner())
		worker, err := cluster.NewWorker(cluster.WorkerOptions{
			ID: id, Addr: "bench", Service: svc, API: api, MaxConcurrent: 4, Logf: logf,
		})
		if err != nil {
			inst.close()
			return nil, err
		}
		workers.Add(1)
		go func() {
			defer workers.Done()
			if err := worker.Run(workerCtx); err != nil && workerCtx.Err() == nil {
				logf("worker %s: %v", id, err)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.Workers() < 2 {
		if time.Now().After(deadline) {
			inst.close()
			return nil, errors.New("workers did not register within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := inst.fill(ctx, w.reqs); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}
