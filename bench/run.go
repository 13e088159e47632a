package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// sizing is how much one run measures. full is what BENCHMARK.json's numbers
// come from; tiny is the smoke size bench_test.go uses.
type sizing struct {
	seed    uint64
	tiny    bool
	outDir  string
	setups  int           // complete set-ups per untraced run, each timed and each measured
	budget  time.Duration // what an untraced run takes, reference rows to last teardown
	blocks  int           // timed blocks a set-up gets whatever the budget says
	traced  int           // blocks per variant in the traced run
	ladderN int           // divisor applied to the ladder's iteration counts
}

// fullSizing: nine set-ups share -seconds; the traced run measures three
// blocks plain and three traced. Blocks are a fixed op list, never a fixed
// duration, so two runs of the same code measure the same work.
func fullSizing(seed uint64, seconds int, outDir string) sizing {
	return sizing{
		seed: seed, outDir: outDir, setups: 9, blocks: 1,
		budget: time.Duration(seconds) * time.Second,
		traced: 3, ladderN: 1,
	}
}

func tinySizing(seed uint64, outDir string) sizing {
	return sizing{seed: seed, tiny: true, outDir: outDir, setups: 1, blocks: 2, traced: 2, ladderN: 200}
}

// pinned reports whether golden.json holds digests for these inputs.
func (sz sizing) pinned() bool { return sz.seed == defaultSeed && !sz.tiny }

// setUp builds one instance of w from nothing — fresh objects, fresh temp
// directory — and returns it with the wall time that took.
func setUp(ctx context.Context, st *step, w workload, ref *reference, tr *tracer, s int) (instance, float64, error) {
	st.set("set-up %d", s)
	runtime.GC()
	start := time.Now()
	inst, err := w.setup(ctx, ref, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up %d: %w", s, err)
	}
	return inst, time.Since(start).Seconds(), nil
}

func tally(blocks []block, ref *reference) (attempted, failed int) {
	for _, b := range blocks {
		attempted += len(b.lat)
		failed += b.failed
	}
	if ref.pin == pinMismatch {
		failed = attempted
	}
	return attempted, failed
}

// runUntraced measures w's end-to-end metrics: no tracer, no decorators, the
// shipped configuration. The run is sz.setups complete set-ups; each, with
// the blocks measured on it, gets an equal share of what is left of the
// budget, so the run takes -seconds from its first reference row to its last
// teardown. Every block figure is the best over all set-ups' blocks:
// instances built from the same inputs differ by several per cent (hash
// seeds, heap placement, which thread took which goroutine), and that luck is
// no more the program's cost than a noisy neighbour is. setup_s is the median
// set-up: set-up times scatter evenly around their middle rather than upwards
// from a floor, so the middle is what repeats.
func runUntraced(ctx context.Context, w workload, sz sizing) (*result, error) {
	var st step
	defer watchdog(w.name(), &st)()
	end := time.Now().Add(sz.budget)
	st.set("reference rows")
	ref, err := computeReference(ctx, w, sz.pinned())
	if err != nil {
		return nil, fmt.Errorf("%s: reference rows: %w", w.name(), err)
	}
	release, err := prepared(ctx, &st, w, ref, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name(), err)
	}
	defer release()
	n := w.opsPerBlock()
	var blocks []block
	var setups []float64
	for s := 0; s < sz.setups; s++ {
		until := time.Now().Add(time.Until(end) / time.Duration(sz.setups-s))
		inst, took, err := setUp(ctx, &st, w, ref, nil, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name(), err)
		}
		setups = append(setups, took)
		bs, err := measure(ctx, &st, inst, nil, n, sz.blocks, until)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", w.name(), s, err)
		}
		blocks = append(blocks, bs...)
	}
	best := bestBlock(blocks)
	res := &result{defs: endToEnd, values: map[string]float64{
		"setup_s":       median(setups),
		"ops_per_s":     best.opsPerS,
		"op_p50_ms":     best.p50ms,
		"op_p90_ms":     best.p90ms,
		"cpu_ms_per_op": best.cpuMsPerOp,
	}}
	res.attempted, res.failed = tally(blocks, ref)
	res.notes = append(res.notes,
		fmt.Sprintf("%s: %d blocks x %d ops (%d latency samples per block) over %d set-ups, reference %s (%s)",
			w.name(), len(blocks), n, n, sz.setups, ref.digest, ref.pin),
		fmt.Sprintf("%s: host calibration loop %.3f ms best, %.3f ms median, worst/best %.2f; block wall worst/best %.2f",
			w.name(), percentile(calibSamples(blocks), 0), calibMedianMS(blocks), calibSpread(blocks), blockSpread(blocks)))
	return res, nil
}

func calibSamples(blocks []block) []float64 {
	var xs []float64
	for _, b := range blocks {
		for _, c := range b.calib {
			xs = append(xs, float64(c)/float64(time.Millisecond))
		}
	}
	return xs
}

func calibMedianMS(blocks []block) float64 { return median(calibSamples(blocks)) }

func calibSpread(blocks []block) float64 {
	xs := calibSamples(blocks)
	return percentile(xs, 1) / percentile(xs, 0)
}

// blockSpread is the slowest block's wall time over the fastest's.
func blockSpread(blocks []block) float64 {
	lo, hi := math.Inf(1), 0.0
	for _, b := range blocks {
		lo = math.Min(lo, b.wall.Seconds())
		hi = math.Max(hi, b.wall.Seconds())
	}
	return hi / lo
}

// runTraced measures w's per-layer metrics. It never produces end-to-end
// numbers: a few blocks run plain, the same number run with the tracer's
// decorators in place (the ratio is host.trace_overhead_ratio), then the
// ladder pushes the same kind of inputs through each layer's entry point.
func runTraced(ctx context.Context, w workload, sz sizing) (*result, error) {
	var st step
	defer watchdog(w.name(), &st)()
	st.set("reference rows")
	ref, err := computeReference(ctx, w, sz.pinned())
	if err != nil {
		return nil, fmt.Errorf("%s: reference rows: %w", w.name(), err)
	}
	n := w.opsPerBlock()
	tr := newTracer()
	release, err := prepared(ctx, &st, w, ref, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name(), err)
	}
	defer release()

	plain, _, err := setUp(ctx, &st, w, ref, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: untraced %w", w.name(), err)
	}
	plainBlocks, err := measure(ctx, &st, plain, nil, n, sz.traced, time.Time{})
	if err != nil {
		return nil, fmt.Errorf("%s: untraced %w", w.name(), err)
	}

	inst, _, err := setUp(ctx, &st, w, ref, tr, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: traced %w", w.name(), err)
	}
	lm, blocks, err := tracedBlocksOf(ctx, &st, inst, tr, n, sz.traced)
	if cerr := inst.close(); err == nil && cerr != nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: traced %w", w.name(), err)
	}
	st.set("writing spans")
	tracePath := filepath.Join(sz.outDir, "trace-"+w.name()+".json")
	if err := tr.write(tracePath); err != nil {
		return nil, fmt.Errorf("%s: writing spans: %w", w.name(), err)
	}

	st.set("ladder")
	rungs, err := ladder(ctx, &st, sz)
	if err != nil {
		return nil, fmt.Errorf("%s: ladder: %w", w.name(), err)
	}

	values := map[string]float64{}
	for k, v := range rungs {
		values[k] = v
	}
	exactCounters(values, w, ref)
	lm.fill(values, tr, blocks, n)
	values["service.http_self_us"] = 0
	if w.name() == "serve_warm" {
		// The handler span holds a Service.Batch of the same bodies the
		// service.batch_us rung calls directly.
		values["service.http_self_us"] = medianMicros(tr.byName(spanHandler)) - rungs["service.batch_us"]
	}
	values["sim.host_ns_per_access"] = 0
	if sw, ok := w.(*simWorkload); ok {
		var accesses float64 // of one op: the round
		for _, c := range sw.round {
			m := ref.rows[c].Mem
			accesses += float64(m.L1Hits + m.L1Misses)
		}
		values["sim.host_ns_per_access"] = 1e9 / bestBlock(blocks).opsPerS / accesses
	}
	values["host.trace_overhead_ratio"] = bestBlock(blocks).p50ms / bestBlock(plainBlocks).p50ms
	_, rss, err := usage()
	if err != nil {
		return nil, err
	}
	values["host.peak_rss_mb"] = rss

	res := &result{defs: perLayer, values: values}
	res.attempted, res.failed = tally(append(plainBlocks, blocks...), ref)
	res.notes = append(res.notes, fmt.Sprintf("%s: traced run, %d+%d blocks x %d ops, spans in %s",
		w.name(), len(plainBlocks), len(blocks), n, tracePath))
	return res, nil
}

// exactCounters sums the simulated counters of the workload's reference
// cells. They are outputs of the deterministic model, not timings: two runs
// on one seed must agree to the last digit, and a simulator-only speed-up
// must leave them untouched.
func exactCounters(values map[string]float64, w workload, ref *reference) {
	var l1h, l1m, l2h, l2m, l3h, l3m, uh, um, walks, fills, reads, writes, bytes uint64
	var queue, cycles float64
	for _, c := range w.cells() {
		row := ref.rows[c]
		m := row.Mem
		l1h, l1m = l1h+m.L1Hits, l1m+m.L1Misses
		l2h, l2m = l2h+m.L2Hits, l2m+m.L2Misses
		l3h, l3m = l3h+m.L3Hits, l3m+m.L3Misses
		uh, um = uh+m.UTLBHits, um+m.UTLBMisses
		walks, fills = walks+m.TLBWalks, fills+m.PrefetchFills
		reads, writes, bytes = reads+m.DRAMReads, writes+m.DRAMWrites, bytes+m.DRAMBytes
		queue += m.QueueCycles
		cycles += row.Cycles
	}
	values["cache.l1_miss_ratio"] = ratio(float64(l1m), float64(l1h+l1m))
	values["cache.l2_miss_ratio"] = ratio(float64(l2m), float64(l2h+l2m))
	values["cache.l3_miss_ratio"] = ratio(float64(l3m), float64(l3h+l3m))
	values["tlb.utlb_miss_ratio"] = ratio(float64(um), float64(uh+um))
	values["tlb.walks"] = float64(walks)
	values["prefetch.fills"] = float64(fills)
	values["dram.reads"] = float64(reads)
	values["dram.writes"] = float64(writes)
	values["dram.bytes"] = float64(bytes)
	values["dram.queue_cycles"] = queue
	// An access here is an L1 lookup: same-line repeats are absorbed by the
	// core's line filter before they reach the L1 model.
	values["sim.accesses"] = float64(l1h + l1m)
	values["sim.cycles"] = cycles
}

// layerMeasure is what the traced blocks add to the spans: counter growth,
// allocation and GC activity, and the deepest admission queue seen.
type layerMeasure struct {
	before, after layerCounters
	mem           [2]runtime.MemStats
	queueMax      float64
}

// tracedBlocksOf runs the traced blocks, sampling counters around them and
// the queue depth after each.
func tracedBlocksOf(ctx context.Context, st *step, inst instance, tr *tracer, n, count int) (*layerMeasure, []block, error) {
	lm := &layerMeasure{}
	var err error
	st.set("reading counters")
	if lm.before, err = inst.counters(); err != nil {
		return nil, nil, fmt.Errorf("reading counters: %w", err)
	}
	runtime.ReadMemStats(&lm.mem[0])
	var blocks []block
	for b := 0; b < count; b++ {
		st.set("traced block %d", b)
		blk, err := runBlock(ctx, inst, tr, b*n, n)
		if err != nil {
			return nil, nil, fmt.Errorf("block %d: %w", b, err)
		}
		blocks = append(blocks, blk)
		st.set("reading counters")
		if lm.after, err = inst.counters(); err != nil {
			return nil, nil, fmt.Errorf("reading counters: %w", err)
		}
		lm.queueMax = math.Max(lm.queueMax, lm.after.queueDepth)
	}
	runtime.ReadMemStats(&lm.mem[1])
	return lm, blocks, nil
}

// fill derives the span- and counter-based layer metrics.
func (lm *layerMeasure) fill(values map[string]float64, tr *tracer, blocks []block, n int) {
	ops := float64(len(blocks) * n)
	a, b := lm.after, lm.before
	tiers := a.tiers.Sub(b.tiers)

	hits, misses := float64(a.memoHits-b.memoHits), float64(a.memoMisses-b.memoMisses)
	values["run.cache_hit_ratio"] = ratio(hits, hits+misses)
	values["run.pool_machines"] = float64(a.poolMachines)

	// A store miss is a lookup no tier served: every memory miss that the
	// disk tier did not turn into a hit.
	storeMisses := float64(tiers.MemoryMisses - tiers.DiskHits)
	storeHits := float64(tiers.MemoryHits + tiers.DiskHits)
	values["memostore.mem_hits"] = float64(tiers.MemoryHits)
	values["memostore.disk_hits"] = float64(tiers.DiskHits)
	values["memostore.misses"] = storeMisses
	values["memostore.disk_writes"] = float64(tiers.DiskWrites)
	// What the untimed preparation before the set-ups persisted is not the
	// blocks' work and is reported apart.
	values["memostore.prepared_writes"] = float64(a.prepared.DiskWrites)
	values["memostore.evictions"] = float64(tiers.MemoryEvictions)
	values["memostore.hit_ratio"] = ratio(storeHits, storeHits+storeMisses)
	values["memostore.errors"] = float64(tiers.DiskWriteErrors + tiers.DiskCorrupt + a.prepared.DiskWriteErrors)
	values["memostore.mem_get_us"] = medianMicros(tr.byName(spanStoreGet + "memory"))
	values["memostore.disk_get_us"] = medianMicros(tr.byName(spanStoreGet + "disk"))
	// A put goes to every tier the store has, so its span is a disk put
	// where the store wrote to disk and a memory put where it has no disk.
	values["memostore.mem_put_us"], values["memostore.disk_put_us"] = 0, 0
	if puts := medianMicros(tr.byName(spanStorePut)); tiers.DiskWrites+a.prepared.DiskWrites > 0 {
		values["memostore.disk_put_us"] = puts
	} else {
		values["memostore.mem_put_us"] = puts
	}

	values["service.rejected"] = float64(a.rejected - b.rejected)
	values["service.queue_depth_max"] = lm.queueMax

	clients := tr.byName(spanClientOp)
	handlers := tr.byName(spanHandler)
	assignments := tr.byName(spanAssignment)
	byOp := func(spans []span) map[int64][]interval {
		m := map[int64][]interval{}
		for _, s := range spans {
			m[s.Op] = append(m[s.Op], s.interval())
		}
		return m
	}
	handlerOf, assignmentsOf := byOp(handlers), byOp(assignments)
	var transport, coordSelf []float64
	for _, c := range clients {
		if hs := handlerOf[c.Op]; len(hs) > 0 {
			transport = append(transport, float64(selfTime(c.interval(), hs))/1e3)
		}
	}
	for _, h := range handlers {
		if as := assignmentsOf[h.Op]; len(as) > 0 {
			coordSelf = append(coordSelf, float64(selfTime(h.interval(), as))/1e3)
		}
	}
	values["client.transport_us"] = median(transport)
	values["client.req_bytes"] = float64(a.reqBytes-b.reqBytes) / ops
	values["client.resp_bytes"] = float64(a.respBytes-b.respBytes) / ops

	nAssign := float64(a.assignments - b.assignments)
	values["cluster.sweep_us_per_cell"] = ratio(bestBlock(blocks).p50ms*1e3, float64(a.cells-b.cells)/ops)
	values["cluster.coord_self_us"] = median(coordSelf)
	values["cluster.worker_exec_us"] = medianMicros(assignments)
	values["cluster.return_rtt_us"] = medianMicros(tr.byName(spanReturn))
	values["cluster.assignments_per_op"] = nAssign / ops
	values["cluster.rows_per_return"] = ratio(float64(a.rows-b.rows), float64(a.returns-b.returns))
	values["cluster.shard_balance"] = lm.shardBalance()
	values["cluster.requeued"] = a.requeued - b.requeued
	values["cluster.workers_lost"] = a.workersLost - b.workersLost
	values["cluster.quarantined"] = a.quarantined - b.quarantined

	var all []float64
	for _, blk := range blocks {
		all = append(all, blk.lat...)
	}
	values["client.op_p99_ms"] = percentile(all, 0.99)
	values["client.raw_op_p50_ms"] = median(all)
	values["client.block_spread"] = blockSpread(blocks)
	values["host.calib_ms_p50"] = calibMedianMS(blocks)
	values["host.calib_spread"] = calibSpread(blocks)
	values["host.alloc_kb_per_op"] = float64(lm.mem[1].TotalAlloc-lm.mem[0].TotalAlloc) / 1024 / ops
	values["host.allocs_per_op"] = float64(lm.mem[1].Mallocs-lm.mem[0].Mallocs) / ops
	values["host.gc_cycles"] = float64(lm.mem[1].NumGC - lm.mem[0].NumGC)
}

// shardBalance is the busiest worker's share of the cells over the mean
// share; 0 when no worker received any.
func (lm *layerMeasure) shardBalance() float64 {
	per := lm.after.cellsPerWorker
	var total, most float64
	for i, c := range per {
		d := float64(c)
		if i < len(lm.before.cellsPerWorker) {
			d -= float64(lm.before.cellsPerWorker[i])
		}
		total += d
		most = math.Max(most, d)
	}
	return ratio(most*float64(len(per)), total)
}
