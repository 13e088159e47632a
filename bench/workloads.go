package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"sync"

	"riscvmem/internal/machine"
	"riscvmem/internal/memostore"
	"riscvmem/internal/run"
)

// layerCounters are the cumulative counters a set-up instance exposes through
// public accessors and /metrics; the traced run reports their growth over
// the timed blocks.
type layerCounters struct {
	memoHits, memoMisses uint64          // run.Runner.CacheStats, summed over runners
	poolMachines         int             // run.Runner.PoolSize, summed
	tiers                memostore.Stats // run.Runner.TierStats, summed
	queueDepth           float64         // simd_queue_depth, scraped
	requeued             float64         // simd_cluster_cells_requeued_total, scraped
	workersLost          float64         // simd_cluster_workers_lost_total, scraped
	quarantined          float64         // simd_cluster_cells_quarantined_total, scraped
	reqBytes, respBytes  uint64          // client side, bodies only
	rejected             uint64          // 429 and 503 replies seen by the client
	// cluster.API decorator totals; zero without a tracer.
	assignments, cells, returns, rows uint64
	cellsPerWorker                    []uint64
	// prepared is what an untimed preparation step did to the store before
	// any set-up (serve_churn persists its cache directory there).
	prepared memostore.Stats
}

// programLog holds what the program under test logged (worker registrations,
// drains, failed persists). It is routine on a good run, so it is printed only
// when a run fails; the cap keeps a log storm from eating memory.
var programLog struct {
	mu    sync.Mutex
	lines []string
}

func logf(format string, args ...any) {
	programLog.mu.Lock()
	defer programLog.mu.Unlock()
	if len(programLog.lines) < 500 {
		programLog.lines = append(programLog.lines, fmt.Sprintf(format, args...))
	}
}

func dumpProgramLog() {
	programLog.mu.Lock()
	defer programLog.mu.Unlock()
	for _, l := range programLog.lines {
		fmt.Fprintln(os.Stderr, "bench: [program]", l)
	}
}

// presets is embedded by the workloads whose cells name device presets.
type presets struct{}

func (presets) resolve(name string) (machine.Spec, error) { return machine.ByName(name) }

// ---- sim_1core and sim_mcore ------------------------------------------------

// simOps is a sim block: 100 rounds, so 100 latency samples.
const simOps = 100

// simWorkload runs rounds of cold cells straight through run.Runner.RunOne
// with memoization off: no service, no store, no cluster.
type simWorkload struct {
	presets
	nm, wy string
	round  simRound
	ops    int
}

func newSimWorkload(name, why string, rng *rand.Rand, cells []cell, tiny bool) workload {
	w := &simWorkload{nm: name, wy: why, round: newSimRound(rng, cells, tiny), ops: simOps}
	if tiny {
		w.ops = 3
	}
	return w
}

func newSim1core(seed uint64, tiny bool) workload {
	rng := newRNG(seed, 1)
	return newSimWorkload("sim_1core",
		"rounds of cold single-simulated-core cells through Runner.RunOne: cache/tlb/prefetch/dram/hier and the sim range path do all the work; engine, memo, service, cluster none",
		rng, sim1coreRound(rng), tiny)
}

func newSimMcore(seed uint64, tiny bool) workload {
	rng := newRNG(seed, 2)
	return newSimWorkload("sim_mcore",
		"rounds of cold cells on every core of VisionFive, RaspberryPi4 and Xeon: sim.engine event ordering dominates; a faster engine moves this and leaves sim_1core still",
		rng, simMcoreRound(rng), tiny)
}

func (w *simWorkload) name() string     { return w.nm }
func (w *simWorkload) why() string      { return w.wy }
func (w *simWorkload) cells() []cell    { return w.round }
func (w *simWorkload) opsPerBlock() int { return w.ops }

type simInstance struct {
	runner *run.Runner
	jobs   []run.Job
	want   []run.Result
}

func (w *simWorkload) setup(ctx context.Context, ref *reference, _ *tracer) (instance, error) {
	inst := &simInstance{runner: run.New(run.Options{Parallelism: 1, DisableCache: true})}
	for _, c := range w.round {
		j, err := c.job(w.resolve)
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", c, err)
		}
		inst.jobs = append(inst.jobs, j)
		inst.want = append(inst.want, ref.rows[c])
	}
	// Cold fill: one round, which constructs the pooled machine of every
	// device the blocks will reuse.
	out, _ := inst.do(ctx, 0)
	if o := out.(simOut); o.err != nil {
		return nil, fmt.Errorf("fill: %w", o.err)
	}
	if !inst.check(0, out) {
		return nil, errors.New("fill: a row differs from the reference")
	}
	return inst, nil
}

// simOut is what one round returned: its rows, or the first row error.
type simOut struct {
	rows []run.Result
	err  error
}

func (s *simInstance) do(ctx context.Context, _ int) (any, error) {
	rows := make([]run.Result, len(s.jobs))
	for k, j := range s.jobs {
		var err error
		if rows[k], err = s.runner.RunOne(ctx, j.Device, j.Workload); err != nil {
			return simOut{err: err}, nil // a failed op, not a harness failure
		}
	}
	return simOut{rows: rows}, nil
}

func (s *simInstance) check(_ int, out any) bool {
	o := out.(simOut)
	return o.err == nil && slices.Equal(o.rows, s.want)
}

func (s *simInstance) counters() (layerCounters, error) {
	hits, misses := s.runner.CacheStats()
	return layerCounters{
		memoHits: hits, memoMisses: misses,
		poolMachines: s.runner.PoolSize(), tiers: s.runner.TierStats(),
	}, nil
}

func (s *simInstance) close() error { return nil }

// allWorkloads generates every workload's inputs from the seed.
func allWorkloads(seed uint64, tiny bool, outDir string) ([]workload, error) {
	cs, err := newClusterSweep(seed, tiny)
	if err != nil {
		return nil, err
	}
	return []workload{
		newSim1core(seed, tiny),
		newSimMcore(seed, tiny),
		newServeWarm(seed, tiny),
		newServeChurn(seed, tiny, outDir),
		cs,
	}, nil
}
