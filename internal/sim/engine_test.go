package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"riscvmem/internal/leakcheck"
	"riscvmem/internal/machine"
)

type grant struct {
	t  float64
	id int
}

func cmpGrant(a, b grant) int {
	return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.id, b.id))
}

// runEngine drives the scheduler with one synthetic body per core and
// returns the grant log. Bodies call granted right after Enter returns; it
// appends to the shared log with no lock, so under -race the log also proves
// that exactly one body runs at a time.
func runEngine(cores int, start float64, body func(e *engine, id int, granted func(t float64))) []grant {
	e := newEngine(cores, start)
	cs := make([]*Core, cores)
	for i := range cs {
		cs[i] = &Core{id: i, now: start}
	}
	var log []grant
	e.run(cs, func(c *Core) {
		body(e, c.id, func(t float64) { log = append(log, grant{t, c.id}) })
	})
	return log
}

// TestEngineOrdersSharedEvents drives 2, 4 and 10 cores with random local
// advances — zero-length ones included, so events tie within and across
// cores — where one core finishes early and one has no shared event at all,
// and checks the grant log is exactly the (time, core ID)-sorted list of
// every core's events, identically on every run.
func TestEngineOrdersSharedEvents(t *testing.T) {
	const start = 100.0
	for _, cores := range []int{2, 4, 10} {
		// Event times depend only on the core's own seed, so the expected
		// order can be computed without the engine.
		events := func(id int) []float64 {
			n := 200
			switch id {
			case 1:
				n = 5 // finishes early
			case cores - 1:
				if cores > 2 {
					n = 0 // never reaches a shared event
				}
			}
			rng := rand.New(rand.NewSource(42 + int64(id)))
			ts, now := make([]float64, n), start
			for i := range ts {
				now += float64(rng.Intn(4)) // local work, possibly none
				ts[i] = now
				now += float64(rng.Intn(3)) // shared work, possibly none
			}
			return ts
		}
		var want []grant
		for id := 0; id < cores; id++ {
			for _, ts := range events(id) {
				want = append(want, grant{ts, id})
			}
		}
		slices.SortStableFunc(want, cmpGrant)
		run := func() []grant {
			return runEngine(cores, start, func(e *engine, id int, granted func(float64)) {
				for _, ts := range events(id) {
					e.Enter(id, ts)
					granted(ts)
				}
			})
		}
		got := run()
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("cores=%d: %d grants, want the %d sorted events; first difference at grant %d:\n got %+v\nwant %+v",
				cores, len(got), len(want), i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
		}
		if again := run(); !slices.Equal(again, got) {
			t.Fatalf("cores=%d: grant log differs across runs", cores)
		}
	}
}

// TestEngineNoDeadlockOnTies exercises the exact-tie path: all cores enter
// at identical times repeatedly, and each round must be granted in ID order.
func TestEngineNoDeadlockOnTies(t *testing.T) {
	const cores, rounds = 8, 500
	log := runEngine(cores, 0, func(e *engine, id int, granted func(float64)) {
		for i := 0; i < rounds; i++ {
			e.Enter(id, float64(i))
			granted(float64(i))
		}
	})
	if len(log) != cores*rounds {
		t.Fatalf("%d grants, want %d", len(log), cores*rounds)
	}
	for i, g := range log {
		if want := (grant{float64(i / cores), i % cores}); g != want {
			t.Fatalf("grant %d is %+v, want %+v", i, g, want)
		}
	}
}

// TestEngineEarlyFinisher: a core that returns without ever reaching a
// shared event must stop constraining the survivor.
func TestEngineEarlyFinisher(t *testing.T) {
	log := runEngine(2, 0, func(e *engine, id int, granted func(float64)) {
		if id == 1 {
			e.Enter(1, 1e9) // far in the future; behind core 0 until it returns
			granted(1e9)
		}
	})
	if !slices.Equal(log, []grant{{1e9, 1}}) {
		t.Fatalf("grant log %+v", log)
	}
}

// TestPanicInMulticoreBodyReachesCaller: a panic in one body of a
// multi-core region surfaces on the caller's goroutine with its value
// intact, the other bodies — parked mid-run or not yet started — are unwound
// rather than run to completion, and no coroutine outlives the call.
func TestPanicInMulticoreBodyReachesCaller(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   machine.Spec
		bad    int
		misses int // lines the bad core streams before panicking
	}{
		{"parked peer", machine.VisionFive(), 1, 64},
		{"unstarted peers", machine.XeonServer(), 0, 0},
		{"parked and finished peers", machine.XeonServer(), 3, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			assertNoLeak := leakcheck.Check(t)
			m := MustNew(tc.spec)
			const elems = 1 << 14
			a := m.MustNewF64(elems)
			completed := make([]bool, tc.spec.Cores)
			var got any
			func() {
				defer func() { got = recover() }()
				m.Run(tc.spec.Cores, func(c *Core) {
					if c.ID() == tc.bad {
						c.TouchRange(a.Addr(0), 8, tc.misses*8, false)
						panic("boom")
					}
					if c.ID() != 2 { // core 2, where there is one, returns at once
						c.TouchRange(a.Addr(0), 8, elems, false)
					}
					completed[c.ID()] = true
				})
				t.Error("Run returned normally")
			}()
			if got != "boom" {
				t.Errorf("recovered %v, want the body's panic value", got)
			}
			for id, done := range completed {
				if done && id != 2 {
					t.Errorf("core %d ran to completion after core %d panicked", id, tc.bad)
				}
			}
			assertNoLeak()
		})
	}
}
