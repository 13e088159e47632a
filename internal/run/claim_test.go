package run

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"riscvmem/internal/machine"
	"riscvmem/internal/memostore"
)

// TestWarmBatchServedInline: a fully memoized batch is served on the
// caller's goroutine at any Parallelism — no worker starts, and progress
// arrives in job order.
func TestWarmBatchServedInline(t *testing.T) {
	var runs atomic.Int64
	dev := machine.MangoPiD1()
	store := memostore.NewMemory(0)
	jobs := make([]Job, 24)
	for i := range jobs {
		w := countingKeyed{name: "test/inline", key: fmt.Sprintf("inline-%d", i), runs: &runs}
		jobs[i] = Job{Device: dev, Workload: w}
		// Filled directly, so no goroutine of a cold run is still
		// unwinding when the count below is taken.
		store.Put(memostore.Key{Version: CacheVersion, Device: dev.Identity(), Workload: w.key},
			newMemoRow(Result{Seconds: float64(i)}))
	}
	r := New(Options{Parallelism: 8, Store: store})
	before := runtime.NumGoroutine()
	var order []int
	results, errs := r.RunAllWithProgress(context.Background(), jobs, func(p Progress) {
		order = append(order, p.Index)
		if p.Cache != CacheHit {
			t.Errorf("job %d: cache outcome %d, want a hit", p.Index, p.Cache)
		}
		// Not above: a goroutine another test left may still be exiting.
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("job %d reported with %d goroutines running, %d before the batch", p.Index, n, before)
		}
	})
	for i := range jobs {
		if errs[i] != nil || results[i].Seconds != float64(i) {
			t.Errorf("job %d: %+v, %v", i, results[i], errs[i])
		}
		if i >= len(order) || order[i] != i {
			t.Fatalf("progress order %v, want job order", order)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("%d simulations for a memoized batch", n)
	}
}

// countingStore counts the lookups a Runner makes of its store.
type countingStore struct {
	memostore.Store
	gets atomic.Uint64
}

func (s *countingStore) Get(key memostore.Key) (any, memostore.Tier, bool) {
	s.gets.Add(1)
	return s.Store.Get(key)
}

// TestOneStoreLookupPerJob: every claim of a keyed job either joins a
// flight or looks the cell up in the store exactly once, and the cache and
// tier counters a batch moves do not depend on Parallelism. Whether a
// duplicate of a cell still simulating joins its flight or finds the
// stored result is a race at Parallelism 4, so for those steps only
// lookups plus joins, and the cache counters, are compared.
func TestOneStoreLookupPerJob(t *testing.T) {
	var runs atomic.Int64
	ctx := context.Background()
	dev := machine.MangoPiD1()
	job := func(key string) Job {
		return Job{Device: dev, Workload: countingKeyed{name: "test/lookup", key: key, runs: &runs, delay: time.Millisecond}}
	}
	batch := func(keys ...string) func(*testing.T, *Runner) {
		return func(t *testing.T, r *Runner) {
			jobs := make([]Job, len(keys))
			for i, k := range keys {
				jobs[i] = job(k)
			}
			if _, err := r.Run(ctx, jobs); err != nil {
				t.Error(err)
			}
		}
	}
	steps := []struct {
		name   string
		claims uint64 // keyed jobs the step runs
		racy   bool
		run    func(*testing.T, *Runner)
	}{
		{"cold", 6, false, batch("a0", "a1", "a2", "a3", "a4", "a5")},
		{"warm", 6, false, batch("a0", "a1", "a2", "a3", "a4", "a5")},
		{"warm prefix, cold, warm", 6, false, batch("a0", "a1", "b0", "b1", "a2", "a3")},
		{"warm duplicates around a cold cell", 5, false, batch("a0", "a0", "c0", "a1", "a1")},
		{"cold duplicates", 4, true, batch("d0", "d0", "d1", "d1")},
		{"join another batch's flight", 4, true, func(t *testing.T, r *Runner) {
			w := blockingKeyed{runs: &runs, entered: make(chan struct{}, 1), release: make(chan struct{})}
			led := make(chan error, 1)
			go func() {
				_, err := r.Run(ctx, []Job{{Device: dev, Workload: w}})
				led <- err
			}()
			<-w.entered // the leader holds the flight
			joined := make(chan error, 1)
			go func() {
				_, err := r.Run(ctx, []Job{job("a0"), {Device: dev, Workload: w}, job("a1")})
				joined <- err
			}()
			time.Sleep(10 * time.Millisecond) // let the second batch reach the flight
			close(w.release)
			if err := <-led; err != nil {
				t.Error(err)
			}
			if err := <-joined; err != nil {
				t.Error(err)
			}
		}},
	}

	type tally struct {
		gets, hits, misses uint64
		tiers              memostore.Stats
	}
	measure := func(parallelism int) []tally {
		store, err := OpenStore(t.TempDir(), 0, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		cs := &countingStore{Store: store}
		r := New(Options{Parallelism: parallelism, Store: cs})
		var out []tally
		for _, s := range steps {
			gets, hits, misses, tiers := cs.gets.Load(), r.hits.Load(), r.misses.Load(), cs.Stats()
			s.run(t, r)
			out = append(out, tally{
				gets: cs.gets.Load() - gets, hits: r.hits.Load() - hits, misses: r.misses.Load() - misses,
				tiers: cs.Stats().Sub(tiers),
			})
		}
		return out
	}
	serial, parallel := measure(1), measure(4)
	for i, s := range steps {
		for _, got := range []tally{serial[i], parallel[i]} {
			// A hit served from the store is one of the lookups; every
			// other hit joined a flight.
			joins := got.hits - got.tiers.MemoryHits - got.tiers.DiskHits
			if got.gets+joins != s.claims {
				t.Errorf("%s: %d lookups + %d joins for %d claims", s.name, got.gets, joins, s.claims)
			}
		}
		a, b := serial[i], parallel[i]
		if a.hits != b.hits || a.misses != b.misses {
			t.Errorf("%s: hits/misses %d/%d at Parallelism 1, %d/%d at 4", s.name, a.hits, a.misses, b.hits, b.misses)
		}
		if !s.racy && a != b {
			t.Errorf("%s: Parallelism 1 moved %+v, Parallelism 4 %+v", s.name, a, b)
		}
	}
}
