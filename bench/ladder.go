package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"riscvmem/internal/cache"
	"riscvmem/internal/dram"
	"riscvmem/internal/kernels/blur"
	"riscvmem/internal/kernels/stream"
	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/machine"
	"riscvmem/internal/prefetch"
	"riscvmem/internal/run"
	"riscvmem/internal/service"
	"riscvmem/internal/sim"
	"riscvmem/internal/sweep"
	"riscvmem/internal/tlb"
)

// ladderReps is how many times each rung is timed; the best is kept, for the
// same reason the workloads keep their best block.
const ladderReps = 5

// rung times fn, which does units units of work, ladderReps times and
// returns the best time per unit in nanoseconds.
func rung(units float64, fn func()) float64 {
	best := math.Inf(1)
	for r := 0; r < ladderReps; r++ {
		start := time.Now()
		fn()
		best = math.Min(best, float64(time.Since(start)))
	}
	return best / units
}

// ladderSink keeps results of timed calls live.
var ladderSink float64

// ladder times calls into each layer's public entry point from outside, from
// the bottom component models up to Service.Batch. It is the same in every
// workload's traced run: the rungs are properties of the program, not of a
// workload. A rung's self time is its reading minus the rung below.
func ladder(ctx context.Context, st *step, sz sizing) (map[string]float64, error) {
	out := map[string]float64{}
	rng := newRNG(sz.seed, 9)
	scaled := func(n int) int { return max(1, n/sz.ladderN) }
	mango := machine.MangoPiD1()

	// One seeded line stream drives the hierarchy and, replayed, each
	// component model below it (MangoPi geometry): runs of 8–32 lines that
	// alternate between a small resident region, where every line hits, and
	// fresh lines, where every line misses — half hits overall. Replaying the
	// hierarchy's own stream is what makes "line − components" a self time.
	st.set("ladder: hier")
	type segment struct {
		addr  uint64
		lines int
		fresh bool
	}
	const lineBytes, perLine, hotLines = 64, 8, 128
	var segs []segment
	total, nextFresh := 0, uint64(1<<20)
	for total < 1<<15 {
		n := 8 + rng.IntN(25)
		seg := segment{lines: n, fresh: len(segs)%2 == 1}
		if seg.fresh {
			seg.addr = nextFresh
			nextFresh += uint64(n) * lineBytes
		} else {
			seg.addr = 4096 + uint64(rng.IntN(hotLines-n))*lineBytes
		}
		segs = append(segs, seg)
		total += n
	}
	h := mango.NewHierarchy()
	issue := mango.Mem.L1HitCycles
	passes := scaled(16)
	out["hier.line_ns"] = rung(float64(passes*total), func() {
		h.Reset()
		now := 0.0
		for p := 0; p < passes; p++ {
			for _, sg := range segs {
				now = h.AccessLines(0, now, sg.addr, sg.lines, perLine, false, issue, nil, nil)
			}
		}
		ladderSink += now
	})
	// What the stream asked of the components, from the hierarchy's own
	// statistics: per line one L1 access and one translation, per demand
	// miss a prefetcher observation, per fill a DRAM transfer.
	perLineWork := 1 / float64(passes*total)
	missesPerLine := float64(h.L1Stats(0).Misses) * perLineWork
	readsPerLine := float64(h.DRAM().Stats.Reads) * perLineWork
	out["hier.access_ns"] = rung(float64(passes*total*perLine), func() {
		h.Reset()
		now := 0.0
		for p := 0; p < passes; p++ {
			for _, sg := range segs {
				for i := uint64(0); i < uint64(sg.lines*perLine); i++ {
					now = h.Access(0, now, sg.addr+i*8, false, issue)
				}
			}
		}
		ladderSink += now
	})

	st.set("ladder: components")
	l1 := cache.MustNew(mango.Mem.L1)
	var cst cache.Stats
	out["cache.access_ns"] = rung(float64(passes*total), func() {
		for p := 0; p < passes; p++ {
			for _, sg := range segs {
				for ln := sg.addr / lineBytes; ln < sg.addr/lineBytes+uint64(sg.lines); ln++ {
					l1.AccessLine(ln, false, &cst)
				}
			}
		}
	})
	utlb := tlb.MustNew(mango.Mem.UTLB)
	out["tlb.lookup_ns"] = rung(float64(passes*total), func() {
		for p := 0; p < passes; p++ {
			for _, sg := range segs {
				for i := 0; i < sg.lines; i++ {
					if a := sg.addr + uint64(i)*lineBytes; !utlb.Lookup(a) {
						utlb.Insert(a)
					}
				}
			}
		}
	})
	pf := prefetch.NewStride(*mango.Mem.Prefetch)
	dm := dram.MustNew(mango.Mem.DRAM)
	var cands []uint64
	freshLines := 0
	for _, sg := range segs {
		if sg.fresh {
			freshLines += sg.lines
		}
	}
	out["prefetch.observe_ns"] = rung(float64(passes*freshLines), func() {
		for p := 0; p < passes; p++ {
			for _, sg := range segs {
				for i := 0; sg.fresh && i < sg.lines; i++ {
					cands = pf.Observe(sg.addr+uint64(i)*lineBytes, cands[:0])
				}
			}
		}
	})
	out["dram.request_ns"] = rung(float64(passes*freshLines), func() {
		now := 0.0
		for p := 0; p < passes; p++ {
			for _, sg := range segs {
				for i := 0; sg.fresh && i < sg.lines; i++ {
					now = dm.LineRead(now, sg.addr+uint64(i)*lineBytes)
				}
			}
		}
		ladderSink += now
	})
	out["hier.self_ns"] = out["hier.line_ns"] - (out["cache.access_ns"] + out["tlb.lookup_ns"] +
		out["prefetch.observe_ns"]*missesPerLine + out["dram.request_ns"]*readsPerLine)

	// The sim range path on one core, and under the engine on two.
	st.set("ladder: sim")
	const rangeElems = 1 << 16
	rangePasses := scaled(64)
	m1 := sim.MustNew(mango)
	a1 := m1.MustNewF64(rangeElems)
	out["sim.touchrange_ns"] = rung(float64(rangePasses*rangeElems), func() {
		m1.RunSeq(func(c *sim.Core) {
			for p := 0; p < rangePasses; p++ {
				a1.LoadRange(c, 0, rangeElems)
			}
		})
	})
	vf := machine.VisionFive()
	m2 := sim.MustNew(vf)
	a2 := m2.MustNewF64(rangeElems)
	parPasses := scaled(8)
	out["sim.parallelrange_ns"] = rung(float64(parPasses*rangeElems), func() {
		for p := 0; p < parPasses; p++ {
			m2.ParallelRange(vf.Cores, rangeElems, sim.Static, 0, func(c *sim.Core, lo, hi int) {
				a2.LoadRange(c, lo, hi)
			})
		}
	})
	out["sim.engine_ratio"] = out["sim.parallelrange_ns"] / out["sim.touchrange_ns"]

	// Constructing and resetting one machine of each of the four presets.
	st.set("ladder: machines")
	presets := machine.All()
	machines := make([]*sim.Machine, len(presets))
	out["sim.machine_new_ms"] = rung(1e6, func() {
		for i, spec := range presets {
			machines[i] = sim.MustNew(spec)
		}
	})
	resets := scaled(8)
	out["sim.machine_reset_us"] = rung(1e3*float64(resets), func() {
		for r := 0; r < resets; r++ {
			for _, m := range machines {
				m.Reset()
			}
		}
	})

	// Kernels on a reset machine, per simulated access (L1 lookup).
	st.set("ladder: kernels")
	streamCfg := stream.Config{Test: stream.Triad, Elems: 1 << 14, Cores: 1, Reps: 1}
	var kernelErr error
	kernel := func(name string, runOn func() (sim.Summary, error)) {
		mem, err := runOn()
		if err != nil && kernelErr == nil {
			kernelErr = fmt.Errorf("%s: %w", name, err)
		}
		accesses := float64(mem.L1Hits + mem.L1Misses)
		out[name] = rung(accesses, func() {
			if _, err := runOn(); err != nil && kernelErr == nil {
				kernelErr = fmt.Errorf("%s: %w", name, err)
			}
		})
	}
	kernel("kernels.stream_ns_per_access", func() (sim.Summary, error) {
		m1.Reset()
		r, err := stream.RunOn(m1, streamCfg)
		return r.Mem, err
	})
	kernel("kernels.transpose_ns_per_access", func() (sim.Summary, error) {
		m1.Reset()
		r, err := transpose.RunOn(m1, transpose.Config{N: 128, Variant: transpose.Naive})
		return r.Mem, err
	})
	kernel("kernels.blur_ns_per_access", func() (sim.Summary, error) {
		m1.Reset()
		r, err := blur.RunOn(m1, blur.Config{W: 48, H: 36, C: 3, F: blurFilter, Variant: blur.Naive})
		return r.Mem, err
	})
	if kernelErr != nil {
		return nil, kernelErr
	}

	// The runner around one small cell: direct kernel call, cold job, warm
	// job. The cell is small so the runner's own cost is not lost in it.
	st.set("ladder: runner")
	jobCfg := stream.Config{Test: stream.Triad, Elems: 256, Cores: 1, Reps: 1}
	jobW := run.Stream(jobCfg)
	jobs := scaled(4000)
	var runErr error
	keep := func(err error) {
		if err != nil && runErr == nil {
			runErr = err
		}
	}
	direct := rung(1e3*float64(jobs), func() {
		for j := 0; j < jobs; j++ {
			m1.Reset()
			_, err := stream.RunOn(m1, jobCfg)
			keep(err)
		}
	})
	coldRunner := run.New(run.Options{Parallelism: 1, DisableCache: true})
	cold := rung(1e3*float64(jobs), func() {
		for j := 0; j < jobs; j++ {
			_, err := coldRunner.RunOne(ctx, mango, jobW)
			keep(err)
		}
	})
	out["run.job_cold_self_us"] = cold - direct
	warmRunner := run.New(run.Options{})
	_, err := warmRunner.RunOne(ctx, mango, jobW)
	keep(err)
	warmJobs := scaled(20000)
	out["run.job_warm_us"] = rung(1e3*float64(warmJobs), func() {
		for j := 0; j < warmJobs; j++ {
			_, err := warmRunner.RunOne(ctx, mango, jobW)
			keep(err)
		}
	})

	// serve_warm's batches, warm, at the runner and at the service.
	st.set("ladder: service")
	warm := newServeWarm(sz.seed, sz.tiny).(*serveWarm)
	store, err := run.OpenStore("", 0, logf)
	if err != nil {
		return nil, err
	}
	svc := newService(store)
	reqs := make([]service.BatchRequest, len(warm.reqs))
	batches := make([][]run.Job, len(warm.reqs))
	for i, r := range warm.reqs {
		if err := json.Unmarshal(r.raw, &reqs[i]); err != nil {
			return nil, err
		}
		for _, c := range r.cells {
			j, err := c.job(warm.resolve)
			if err != nil {
				return nil, err
			}
			batches[i] = append(batches[i], j)
		}
		resp, err := svc.Batch(ctx, reqs[i]) // fill
		if err != nil {
			return nil, err
		}
		if len(resp.Errors) > 0 {
			return nil, fmt.Errorf("filling the service rung: %s", resp.Errors[0])
		}
	}
	calls := scaled(400)
	out["run.batch_warm_us"] = rung(1e3*float64(calls), func() {
		for k := 0; k < calls; k++ {
			_, errs := svc.Runner().RunAll(ctx, batches[k%len(batches)])
			for _, err := range errs {
				keep(err)
			}
		}
	})
	out["service.batch_us"] = rung(1e3*float64(calls), func() {
		for k := 0; k < calls; k++ {
			_, err := svc.Batch(ctx, reqs[k%len(reqs)])
			keep(err)
		}
	})
	out["service.self_us"] = out["service.batch_us"] - out["run.batch_warm_us"]
	if runErr != nil {
		return nil, runErr
	}

	st.set("ladder: sweep")
	axes, err := sweep.ParseAxes(sweepAxes)
	if err != nil {
		return nil, err
	}
	expands := scaled(2000)
	var expandErr error
	out["sweep.expand_us"] = rung(1e3*float64(expands), func() {
		for k := 0; k < expands; k++ {
			if _, err := sweep.Expand(mango, axes); err != nil {
				expandErr = err
			}
		}
	})
	return out, expandErr
}
