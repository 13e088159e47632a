package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"riscvmem/internal/machine"
	"riscvmem/internal/run"
	"riscvmem/internal/sim"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100, 99, … 1
	}
	for _, tc := range []struct{ p, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %v", got)
	}
}

func TestBestBlockTakesEachFigureWhereItReadBest(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	blocks := []block{
		// Quiet wall clock, busy CPU.
		{wall: ms(100), cpu: ms(300), lat: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 9}},
		// Slow, but with the calmest tail and the least CPU.
		{wall: ms(200), cpu: ms(50), lat: []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}},
	}
	got := bestBlock(blocks)
	want := blockStats{opsPerS: 100, p50ms: 1, p90ms: 1, cpuMsPerOp: 5}
	if got != want {
		t.Errorf("bestBlock = %+v, want %+v", got, want)
	}
	if s := blocks[1].stats(); s.p90ms != 2 || s.opsPerS != 50 {
		t.Errorf("block stats = %+v", s)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{120, 150}}, 70},
		{"overlapping children count once", []interval{{120, 160}, {140, 180}}, 40},
		{"children clipped to the parent", []interval{{50, 110}, {190, 300}}, 80},
		{"child outside the parent", []interval{{300, 400}}, 100},
		{"nested children", []interval{{110, 190}, {120, 130}}, 20},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// inputsOf flattens everything a seed generates into comparable data.
func inputsOf(t *testing.T, seed uint64) map[string]any {
	t.Helper()
	all, err := allWorkloads(seed, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]any{}
	for _, w := range all {
		out[w.name()+" cells"] = w.cells()
		switch w := w.(type) {
		case *serveWarm:
			out[w.name()+" requests"] = w.reqs
		case *clusterSweep:
			out[w.name()+" requests"] = w.reqs
		case *serveChurn:
			out[w.name()+" ops"] = []request{w.op(0), w.op(1), w.op(777)}
		}
	}
	return out
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	a, b, other := inputsOf(t, 42), inputsOf(t, 42), inputsOf(t, 43)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed generated different inputs")
	}
	for key := range a {
		if reflect.DeepEqual(a[key], other[key]) {
			t.Errorf("%s: seeds 42 and 43 generated the same inputs", key)
		}
	}
}

// TestBlockShapeDoesNotDependOnTheSeed pins what keeps runs on different
// seeds comparable: the seed reorders and relabels work, it never resizes it.
func TestBlockShapeDoesNotDependOnTheSeed(t *testing.T) {
	shape := func(seed uint64) map[string]int {
		all, err := allWorkloads(seed, false, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, w := range all {
			out[w.name()+" ops"] = w.opsPerBlock()
			if w.opsPerBlock() < 100 {
				t.Errorf("%s: %d ops per block, want at least 100 latency samples", w.name(), w.opsPerBlock())
			}
		}
		return out
	}
	if a, b := shape(1), shape(2); !reflect.DeepEqual(a, b) {
		t.Errorf("block shape differs between seeds: %v vs %v", a, b)
	}
}

// TestTaggedRowsAreDerivedExactly checks serve_churn's shortcut against the
// program: the reference row of a scaleby-tagged cell, derived from its base
// row, equals what the runner computes for that cell.
func TestTaggedRowsAreDerivedExactly(t *testing.T) {
	ctx := context.Background()
	w := newServeChurn(7, true, t.TempDir())
	ref, err := computeReference(ctx, w, false)
	if err != nil {
		t.Fatal(err)
	}
	runner := run.New(run.Options{DisableCache: true})
	for _, c := range []cell{
		{"MangoPi", tagged(w.(*serveChurn).bases[0], 64)},
		{"VisionFive", tagged(w.(*serveChurn).bases[3], 1<<20+64)},
	} {
		job, err := c.job(machine.ByName)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runner.RunOne(ctx, job.Device, job.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if want := expectTagged(ref, c); got != want {
			t.Errorf("%s: derived row %+v, simulated row %+v", c, want, got)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at smoke size, both
// untraced and traced: every named metric must come out as a finite number
// with its unit, and no op may fail.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	ctx := context.Background()
	outDir := t.TempDir()
	all, err := allWorkloads(defaultSeed, true, outDir)
	if err != nil {
		t.Fatal(err)
	}
	sz := tinySizing(defaultSeed, outDir)
	for _, w := range all {
		for _, mode := range []struct {
			name    string
			measure func(context.Context, workload, sizing) (*result, error)
			defs    []metricDef
		}{
			{"untraced", runUntraced, endToEnd},
			{"traced", runTraced, perLayer},
		} {
			res, err := mode.measure(ctx, w, sz)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name(), mode.name, err)
			}
			if err := res.complete(); err != nil {
				t.Errorf("%s %s: %v", w.name(), mode.name, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s %s: %d of %d ops failed", w.name(), mode.name, res.failed, res.attempted)
			}
			line, err := res.jsonLine()
			if err != nil {
				t.Fatal(err)
			}
			var decoded struct {
				Correct bool
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &decoded); err != nil {
				t.Fatalf("%s %s: result line does not parse: %v", w.name(), mode.name, err)
			}
			if !decoded.Correct || len(decoded.Metrics) != len(mode.defs) {
				t.Errorf("%s %s: correct=%v with %d metrics, want %d", w.name(), mode.name, decoded.Correct, len(decoded.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				if m := decoded.Metrics[d.Name]; m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s %s: metric %s = %+v, want a value in %s", w.name(), mode.name, d.Name, m, d.Unit)
				}
			}
			if mode.name == "traced" {
				layerSeparation(t, w.name(), res.values)
				if _, err := os.Stat(outDir + "/trace-" + w.name() + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", w.name(), err)
				}
			}
		}
	}
}

// layerSeparation checks that each workload bypasses the layers it claims to.
func layerSeparation(t *testing.T, name string, v map[string]float64) {
	t.Helper()
	for _, must0 := range []string{"service.rejected", "memostore.errors", "cluster.quarantined", "cluster.workers_lost", "cluster.requeued"} {
		if v[must0] != 0 {
			t.Errorf("%s: %s = %v, want 0", name, must0, v[must0])
		}
	}
	switch name {
	case "sim_1core", "sim_mcore":
		if v["run.cache_hit_ratio"] != 0 || v["memostore.mem_hits"] != 0 || v["client.resp_bytes"] != 0 {
			t.Errorf("%s touched the memo store or a socket: %v", name, v)
		}
	case "serve_warm":
		if v["run.cache_hit_ratio"] != 1 || v["memostore.disk_writes"] != 0 || v["memostore.mem_get_us"] <= 0 {
			t.Errorf("serve_warm is not a pure memory-tier read: hit ratio %v, disk writes %v", v["run.cache_hit_ratio"], v["memostore.disk_writes"])
		}
	case "serve_churn":
		// Its blocks only read the disk tier; the entries they read were
		// written by the untimed preparation, counted apart.
		if v["memostore.disk_hits"] <= 0 || v["memostore.evictions"] <= 0 || v["memostore.prepared_writes"] <= 0 || v["memostore.disk_put_us"] <= 0 {
			t.Errorf("serve_churn did not read, promote and evict over a prepared disk tier: %v disk hits, %v evictions, %v prepared writes",
				v["memostore.disk_hits"], v["memostore.evictions"], v["memostore.prepared_writes"])
		}
	case "cluster_sweep":
		if v["run.cache_hit_ratio"] != 1 || v["cluster.assignments_per_op"] <= 0 || v["cluster.worker_exec_us"] <= 0 {
			t.Errorf("cluster_sweep: hit ratio %v, assignments per op %v", v["run.cache_hit_ratio"], v["cluster.assignments_per_op"])
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps the contract file and the program
// from drifting apart: same workloads, same metrics, units and bounds.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	all, err := allWorkloads(defaultSeed, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(all) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(all))
	}
	for i, w := range all {
		if file.Workloads[i].Name != w.name() || file.Workloads[i].Why != w.why() {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, file.Workloads[i], w.name(), w.why())
		}
		if len(w.why()) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name(), len(w.why()))
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (metric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
}

// TestGoldenDigestGatesEveryOp: the default seed's reference rows are pinned;
// a digest that differs under the same model version fails every op, and a
// model version with no digests is reported as unpinned, not failed.
func TestGoldenDigestGatesEveryOp(t *testing.T) {
	ctx := context.Background()
	w := newServeChurn(defaultSeed, false, t.TempDir())
	ref, err := computeReference(ctx, w, true)
	if err != nil {
		t.Fatal(err)
	}
	if ref.pin != pinOK {
		t.Fatalf("default seed: reference %s is %s, want %s", ref.digest, ref.pin, pinOK)
	}
	blocks := []block{{lat: make([]float64, 7)}}
	if attempted, failed := tally(blocks, ref); attempted != 7 || failed != 0 {
		t.Errorf("pinned reference: %d of %d ops failed", failed, attempted)
	}

	saved := goldenJSON
	defer func() { goldenJSON = saved }()
	goldenJSON = []byte(`{"` + sim.ModelVersion + `": {"serve_churn": "0000"}}`)
	if ref, err = computeReference(ctx, w, true); err != nil {
		t.Fatal(err)
	}
	if attempted, failed := tally(blocks, ref); ref.pin != pinMismatch || failed != attempted {
		t.Errorf("doctored digest: pin %s, %d of %d ops failed; want all", ref.pin, failed, attempted)
	}
	goldenJSON = []byte(`{"some other model": {"serve_churn": "0000"}}`)
	if ref, err = computeReference(ctx, w, true); err != nil {
		t.Fatal(err)
	}
	if _, failed := tally(blocks, ref); ref.pin != pinUnpinned || failed != 0 {
		t.Errorf("unknown model version: pin %s, %d ops failed; want unpinned and none", ref.pin, failed)
	}
}
