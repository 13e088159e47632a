package cluster

import (
	"fmt"
	"strings"
	"testing"

	"riscvmem/internal/cluster/protocol"
	"riscvmem/internal/machine"
	"riscvmem/internal/run"
)

// fleet is a worker table as Register builds it, without a coordinator.
func fleet(ids ...string) map[string]*workerState {
	m := make(map[string]*workerState, len(ids))
	for _, id := range ids {
		m[id] = &workerState{id: id, hash: hashKey(id)}
	}
	return m
}

// ownerOf routes a shard key the way scheduleLocked does; "" with no workers.
func ownerOf(workers map[string]*workerState, key string) string {
	if ws := route(workers, hashKey(key)); ws != nil {
		return ws.id
	}
	return ""
}

func workerIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("worker-%d", i+1)
	}
	return ids
}

// oracleKeys are the shard keys of every oracle spec on every preset.
func oracleKeys(t *testing.T) []string {
	var keys []string
	for _, spec := range oracleSpecs() {
		w, err := run.NewWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, dev := range machine.All() {
			keys = append(keys, shardKey(dev, w))
		}
	}
	return keys
}

func syntheticKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("dev-%d\x00stream:elems=%d", i%7, i)
	}
	return keys
}

// TestRingAffinityAndStability pins the two properties scheduling relies
// on: the key → worker mapping is a function of the key and the membership
// alone (affinity — and, because both hashes are FNV-1a, across processes),
// and removing one worker moves only that worker's keys (stability under
// churn). The name predates rendezvous hashing; the assertions are the
// ring's.
func TestRingAffinityAndStability(t *testing.T) {
	workers := []string{"alpha", "beta", "gamma"}
	r1 := fleet(workers...)
	r2 := fleet("gamma", "beta", "alpha") // order must not matter

	keys := make([]string, 0, 200)
	for _, spec := range oracleSpecs() {
		keys = append(keys, "dev\x00"+spec.String())
	}
	for i := 0; i < 100; i++ {
		keys = append(keys, string(rune('a'+i%26))+"\x00key")
	}

	owned := map[string]int{}
	for _, k := range keys {
		o1, o2 := ownerOf(r1, k), ownerOf(r2, k)
		if o1 != o2 {
			t.Fatalf("key %q: owner %q vs %q across identical rebuilds", k, o1, o2)
		}
		owned[o1]++
	}
	for _, w := range workers {
		if owned[w] == 0 {
			t.Errorf("worker %s owns no keys of %d — routing badly unbalanced", w, len(keys))
		}
	}

	shrunk := fleet("alpha", "beta")
	moved := 0
	for _, k := range keys {
		before, after := ownerOf(r1, k), ownerOf(shrunk, k)
		if before == "gamma" {
			if after == "gamma" {
				t.Fatalf("key %q still owned by removed worker", k)
			}
			moved++
			continue
		}
		if before != after {
			t.Errorf("key %q moved %s → %s though its owner never left", k, before, after)
		}
	}
	if moved == 0 {
		t.Error("removed worker owned no keys; stability not exercised")
	}

	if got := ownerOf(fleet(), "anything"); got != "" {
		t.Errorf("empty fleet owner = %q, want \"\"", got)
	}
}

// TestRoutingJoinMovesOnlyToTheJoiner is stability for a join: growing the
// fleet from n to n+1 workers re-homes only the keys the newcomer wins, and
// every worker of every fleet size owns some of the real shard keys.
func TestRoutingJoinMovesOnlyToTheJoiner(t *testing.T) {
	oracle := oracleKeys(t)
	keys := append(oracle, syntheticKeys(500)...)
	for n := 2; n <= 8; n++ {
		ids := workerIDs(n + 1)
		joiner := ids[n]
		before, after := fleet(ids[:n]...), fleet(ids...)
		won := 0
		owned := map[string]int{}
		for i, k := range keys {
			b, a := ownerOf(before, k), ownerOf(after, k)
			if i < len(oracle) {
				owned[b]++
			}
			if a == joiner {
				won++
			} else if a != b {
				t.Errorf("n=%d: key %q moved %s → %s, neither of them the joiner", n, k, b, a)
			}
		}
		if won == 0 {
			t.Errorf("n=%d: the joiner won no keys; the join was not exercised", n)
		}
		for _, id := range ids[:n] {
			if owned[id] == 0 {
				t.Errorf("n=%d: %s owns none of the %d oracle shard keys", n, id, len(oracle))
			}
		}
	}
}

// benchGridJobs plans the cluster_sweep benchmark's grid (bench/cluster.go:
// MangoPi, 4 × 4 axis grid, 12 STREAM + 4 transpose specs) through the
// planner the coordinator itself uses.
func benchGridJobs(t *testing.T) []run.Job {
	var specs []run.WorkloadSpec
	for _, test := range []string{"COPY", "SCALE", "SUM", "TRIAD"} {
		for _, n := range []int{1024, 2048, 4096} {
			specs = append(specs, run.MustParseWorkloadSpec(
				fmt.Sprintf("stream:test=%s,elems=%d,cores=1,reps=1", test, n)))
		}
	}
	for _, v := range []string{"Naive", "Blocking"} {
		for _, n := range []int{64, 128} {
			specs = append(specs, run.MustParseWorkloadSpec(
				fmt.Sprintf("transpose:variant=%s,n=%d", v, n)))
		}
	}
	plan, err := planSweep("MangoPi",
		[]string{"l2=base,64KiB,128KiB,256KiB", "maxinflight=base,2,4,8"}, specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return plan.jobs
}

// benchGridKeys rebuilds the 256 shard keys of the cluster_sweep benchmark.
func benchGridKeys(t *testing.T) []string {
	seen := map[string]bool{}
	var keys []string
	for _, job := range benchGridJobs(t) {
		if k := shardKey(job.Device, job.Workload); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	if len(keys) != 256 {
		t.Fatalf("bench grid has %d distinct shard keys, want 256", len(keys))
	}
	return keys
}

// TestRoutingBalance holds the busiest worker to 1.15 × the mean share — the
// benchmark's cluster.shard_balance gate — on the benchmark's own keys for
// both worker-ID pairs in use, and on a larger synthetic set for wider fleets.
func TestRoutingBalance(t *testing.T) {
	grid := benchGridKeys(t)
	cases := []struct {
		name    string
		keys    []string
		workers []string
	}{
		{"bench grid, bench IDs", grid, []string{"worker-a.bench.local:8471", "worker-b.bench.local:8471"}},
		{"bench grid, CI IDs", grid, []string{"w1", "w2"}},
		{"synthetic, 3 workers", syntheticKeys(4096), workerIDs(3)},
		{"synthetic, 5 workers", syntheticKeys(4096), workerIDs(5)},
		{"synthetic, 8 workers", syntheticKeys(4096), workerIDs(8)},
	}
	for _, tc := range cases {
		workers := fleet(tc.workers...)
		owned := map[string]int{}
		busiest := 0
		for _, k := range tc.keys {
			o := ownerOf(workers, k)
			owned[o]++
			busiest = max(busiest, owned[o])
		}
		balance := float64(busiest) * float64(len(tc.workers)) / float64(len(tc.keys))
		t.Logf("%s: busiest ÷ mean = %.3f %v", tc.name, balance, owned)
		if balance > 1.15 {
			t.Errorf("%s: busiest ÷ mean = %.3f, want ≤ 1.15 (%v)", tc.name, balance, owned)
		}
	}
}

// TestRoutingPinnedOwners fixes a handful of (key, fleet) → owner literals.
// Every worker's disk cache is aligned to this mapping, so a change of hash,
// finalizer or tie-break silently re-homes all of them: it must be made on
// purpose, here, and said in DESIGN § cluster.
func TestRoutingPinnedOwners(t *testing.T) {
	ci := []string{"w1", "w2"}
	trio := []string{"alpha", "beta", "gamma"}
	for _, tc := range []struct {
		key     string
		workers []string
		owner   string
	}{
		{"dev\x00stream:elems=4096,reps=1,test=COPY", ci, "w1"},
		{"dev\x00transpose:n=128,variant=Dynamic", ci, "w1"},
		{"a\x00key", ci, "w2"},
		{"a\x00key", trio, "beta"},
		{"f\x00key", trio, "alpha"},
		{"dev\x00transpose:n=128,variant=Dynamic", trio, "gamma"},
		{"b\x00key", workerIDs(8), "worker-3"},
		{"", workerIDs(8), "worker-5"},
	} {
		if got := ownerOf(fleet(tc.workers...), tc.key); got != tc.owner {
			t.Errorf("owner(%q, %v) = %s, pinned %s", tc.key, tc.workers, got, tc.owner)
		}
	}
}

// TestChargeLocked drives the failure budget's one site through its three
// outcomes.
func TestChargeLocked(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		attempts             int
		failed               bool
		requeued, quarantine bool
	}{
		{"below budget", 0, false, true, false},
		{"last attempt within budget", 1, false, true, false},
		{"at budget", 2, false, false, true},
		{"failed dispatch", 2, true, false, false},
	} {
		c := New(Options{MaxCellAttempts: 3})
		d := &dispatch{
			id: "d1", rows: make([]protocol.Row, 2), done: make([]bool, 2),
			remaining: 2, failed: tc.failed, doneCh: make(chan struct{}),
		}
		cell := &cellTask{d: d, cell: protocol.Cell{Index: 1}, attempts: tc.attempts}
		got := c.chargeLocked([]*cellTask{cell}, "boom")
		if requeued := len(got) == 1 && got[0] == cell; requeued != tc.requeued {
			t.Errorf("%s: returned %d cell(s) to requeue, want requeued=%v", tc.name, len(got), tc.requeued)
		}
		if want := uint64(len(got)); c.cellsRequeued != want {
			t.Errorf("%s: cellsRequeued = %d, want %d", tc.name, c.cellsRequeued, want)
		}
		if want := tc.attempts + 1; !tc.failed && cell.attempts != want {
			t.Errorf("%s: attempts = %d, want %d", tc.name, cell.attempts, want)
		}
		if tc.failed && cell.attempts != tc.attempts {
			t.Errorf("%s: a dead dispatch's cell was charged", tc.name)
		}
		row := d.rows[1]
		if tc.quarantine {
			if c.cellsQuarantined != 1 || !d.done[1] || d.remaining != 1 ||
				!strings.HasSuffix(row.Error, ": boom") || !strings.Contains(row.Error, "quarantined") {
				t.Errorf("%s: want exactly one quarantine row ending in the cause; quarantined=%d done=%v row=%+v",
					tc.name, c.cellsQuarantined, d.done, row)
			}
		} else if c.cellsQuarantined != 0 || d.done[1] || row.Error != "" {
			t.Errorf("%s: unexpected quarantine: count=%d row=%+v", tc.name, c.cellsQuarantined, row)
		}
		if d.done[0] {
			t.Errorf("%s: the sibling row was touched", tc.name)
		}
		c.Close()
	}
}
