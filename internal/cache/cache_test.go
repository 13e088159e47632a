package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// tiny returns a 2-set, 2-way cache with 64-byte lines (256 B total) so that
// eviction sequences can be computed by hand.
func tiny(p Policy) *Cache {
	return MustNew(Config{Name: "t", Size: 256, Ways: 2, LineSize: 64, Policy: p, Seed: 42})
}

// validLines counts the cache's valid lines.
func validLines(c *Cache) int {
	n := 0
	for i := range c.lines {
		if c.lines[i].meta&lineValid != 0 {
			n++
		}
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "zero", Size: 0, Ways: 1, LineSize: 64},
		{Name: "negline", Size: 128, Ways: 2, LineSize: -64},
		{Name: "npot-line", Size: 96, Ways: 1, LineSize: 48},
		{Name: "indivisible", Size: 100, Ways: 2, LineSize: 16},
		{Name: "npot-sets", Size: 3 * 64 * 2, Ways: 2, LineSize: 64},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q unexpectedly valid", cfg.Name)
		}
	}
	good := Config{Name: "l1", Size: 32 << 10, Ways: 4, LineSize: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("config %q: %v", good.Name, err)
	}
	if got, want := good.Sets(), int64(128); got != want {
		t.Errorf("Sets() = %d, want %d", got, want)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Name: "bad", Size: 7, Ways: 1, LineSize: 3}); err == nil {
		t.Fatal("New accepted an invalid config")
	}
}

func TestHitMissSequence(t *testing.T) {
	c := tiny(LRU)
	// Addresses 0 and 256 map to set 0 (line 0 and line 4), 64 to set 1.
	if r := c.Access(0, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(8, false); !r.Hit {
		t.Fatal("same-line access missed")
	}
	if r := c.Access(64, false); r.Hit {
		t.Fatal("different-set cold access hit")
	}
	if r := c.Access(256, false); r.Hit {
		t.Fatal("cold access to second way hit")
	}
	// Set 0 now holds lines {0, 256}; both should hit.
	if !c.Access(0, false).Hit || !c.Access(256, false).Hit {
		t.Fatal("resident lines missed")
	}
	if got := c.Stats.Hits; got != 3 {
		t.Fatalf("Stats.Hits = %d, want 3", got)
	}
	if got := c.Stats.Misses; got != 3 {
		t.Fatalf("Stats.Misses = %d, want 3", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny(LRU)
	c.Access(0, false)   // set 0, way 0
	c.Access(256, false) // set 0, way 1
	c.Access(0, false)   // 0 is now most recent
	r := c.Access(512, false)
	if r.Hit {
		t.Fatal("conflicting access hit")
	}
	if !r.EvictedValid || r.Evicted != 256 {
		t.Fatalf("evicted %#x (valid=%v), want 256", r.Evicted, r.EvictedValid)
	}
	if c.Probe(256) {
		t.Fatal("evicted line still present")
	}
	if !c.Probe(0) || !c.Probe(512) {
		t.Fatal("expected lines not present")
	}
}

func TestFIFOEvictsInsertionOrder(t *testing.T) {
	c := tiny(FIFO)
	c.Access(0, false)
	c.Access(256, false)
	c.Access(0, false) // recency must NOT protect 0 under FIFO
	r := c.Access(512, false)
	if !r.EvictedValid || r.Evicted != 0 {
		t.Fatalf("FIFO evicted %#x, want 0", r.Evicted)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := tiny(LRU)
	c.Access(0, true) // dirty
	c.Access(256, false)
	r := c.Access(512, false) // evicts 0, which is dirty
	if !r.EvictedValid || !r.EvictedDirty {
		t.Fatalf("expected dirty eviction, got %+v", r)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Stats.Writebacks)
	}
	// A clean line must not report a writeback.
	r = c.Access(768, false)
	if r.EvictedDirty {
		t.Fatalf("clean eviction reported dirty: %+v", r)
	}
}

func TestInstallDoesNotCountDemand(t *testing.T) {
	c := tiny(LRU)
	c.Install(0, false)
	if c.Stats.Hits+c.Stats.Misses != 0 {
		t.Fatalf("Install counted as demand access: %+v", c.Stats)
	}
	if !c.Access(0, false).Hit {
		t.Fatal("installed line missed")
	}
}

func TestInstallRefreshesExistingLine(t *testing.T) {
	c := tiny(LRU)
	c.Access(0, false)
	c.Access(256, false)
	c.Install(0, false) // 0 becomes most recent
	r := c.Access(512, false)
	if r.Evicted != 256 {
		t.Fatalf("evicted %#x, want 256 after refresh", r.Evicted)
	}
}

func TestRandomPolicyIsDeterministic(t *testing.T) {
	run := func() []uint64 {
		c := tiny(Random)
		var evictions []uint64
		for i := 0; i < 64; i++ {
			r := c.Access(uint64(i)*512, false)
			if r.EvictedValid {
				evictions = append(evictions, r.Evicted)
			}
		}
		return evictions
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("eviction counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction %d differs: %#x vs %#x", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("expected at least one eviction")
	}
}

func TestPLRUCoversAllWays(t *testing.T) {
	c := MustNew(Config{Name: "p", Size: 4 * 64, Ways: 4, LineSize: 64, Policy: PLRU})
	// Fill all 4 ways of the single set... wait: 4 ways * 64B = 256B = size,
	// so one set. Touch each line, then force evictions and check each way
	// can become a victim over time.
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64*1, false)
	}
	seen := map[uint64]bool{}
	for i := 4; i < 64; i++ {
		r := c.Access(uint64(i)*64, false)
		if r.EvictedValid {
			seen[r.Evicted%256/64] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("PLRU only ever evicted ways %v", seen)
	}
}

func TestResetClearsEverything(t *testing.T) {
	c := tiny(LRU)
	c.Access(0, true)
	c.Access(512, false)
	c.Reset()
	if c.Stats != (Stats{}) {
		t.Fatalf("stats not cleared: %+v", c.Stats)
	}
	if validLines(c) != 0 {
		t.Fatal("lines survived reset")
	}
	if c.Access(0, false).Hit {
		t.Fatal("hit after reset")
	}
}

// TestResetRestoresFreshState: Reset clears only the sets installed into
// since the last one, so it must still leave every structure exactly as New
// builds it — under each policy, after demand accesses and prefetch installs
// over a working set that touches only some of the sets, and again when the
// same cache is reset a second time.
func TestResetRestoresFreshState(t *testing.T) {
	for _, p := range []Policy{LRU, Random, FIFO, PLRU} {
		cfg := Config{Name: "t", Size: 64 << 10, Ways: 4, LineSize: 64, Policy: p, Seed: 7}
		fresh, c := MustNew(cfg), MustNew(cfg)
		rng := rand.New(rand.NewSource(1))
		for round := 0; round < 2; round++ {
			for i := 0; i < 4000; i++ {
				// 192 of the 256 sets, four times their capacity.
				addr := uint64(rng.Intn(16)<<8|rng.Intn(192)) * 64
				if rng.Intn(8) == 0 {
					c.Install(addr, rng.Intn(2) == 0)
				} else {
					c.Access(addr, rng.Intn(2) == 0)
				}
			}
			if len(c.touched) == 0 || len(c.touched) == len(c.seq) {
				t.Fatalf("%v: %d of %d sets touched; the stream should dirty some, not all", p, len(c.touched), len(c.seq))
			}
			c.Reset()
			if !slices.Equal(c.lines, fresh.lines) || !slices.Equal(c.plru, fresh.plru) ||
				!slices.Equal(c.seq, fresh.seq) || len(c.touched) != 0 ||
				c.clock != fresh.clock || c.rng != fresh.rng || c.memo != fresh.memo || c.Stats != fresh.Stats {
				t.Fatalf("%v round %d: reset cache differs from a new one", p, round)
			}
		}
	}
}

func TestPolicyString(t *testing.T) {
	names := map[Policy]string{LRU: "LRU", Random: "random", FIFO: "FIFO", PLRU: "PLRU", Policy(9): "Policy(9)"}
	for p, want := range names {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

// Property: the number of valid lines never exceeds capacity, and a line
// reported evicted is really gone, for random access streams on all policies.
func TestPropertyCapacityInvariant(t *testing.T) {
	for _, p := range []Policy{LRU, Random, FIFO, PLRU} {
		p := p
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			c := MustNew(Config{Name: "q", Size: 2 << 10, Ways: 4, LineSize: 64, Policy: p, Seed: uint64(seed) + 1})
			capacity := int(c.cfg.Size / c.cfg.LineSize)
			for i := 0; i < 2000; i++ {
				addr := uint64(rng.Intn(1 << 16))
				r := c.Access(addr, rng.Intn(2) == 0)
				if validLines(c) > capacity {
					return false
				}
				if r.EvictedValid && c.Probe(r.Evicted) {
					return false
				}
				if !c.Probe(addr) { // accessed line must now be resident
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("policy %v: %v", p, err)
		}
	}
}

// Property: an LRU cache with a working set no larger than one set's ways
// never misses after the first touch (rehearsal of the blocking argument
// used by the transposition kernel).
func TestPropertyLRUNoCapacityMissesWithinWays(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew(Config{Name: "w", Size: 8 << 10, Ways: 8, LineSize: 64, Policy: LRU})
		// Pick up to 8 distinct lines that all map to the same set.
		sets := c.cfg.Sets()
		set := uint64(rng.Intn(int(sets)))
		lines := make([]uint64, 8)
		for i := range lines {
			lines[i] = (uint64(i)*uint64(sets) + set) * 64
		}
		for _, a := range lines {
			c.Access(a, false)
		}
		miss := 0
		for i := 0; i < 500; i++ {
			a := lines[rng.Intn(len(lines))]
			if !c.Access(a, false).Hit {
				miss++
			}
		}
		return miss == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := MustNew(Config{Name: "l1", Size: 32 << 10, Ways: 4, LineSize: 64, Policy: LRU})
	c.Access(0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0, false)
	}
}

func BenchmarkAccessMissStream(b *testing.B) {
	c := MustNew(Config{Name: "l1", Size: 32 << 10, Ways: 4, LineSize: 64, Policy: LRU})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)*64, false)
	}
}

// TestAccessLineEquivalence pins AccessLine (a precomputed line number,
// statistics counted into the caller's Stats) to the plain Access path:
// identical Results, replacement state and counters on a mixed random
// workload, for every policy.
func TestAccessLineEquivalence(t *testing.T) {
	for _, pol := range []Policy{LRU, Random, FIFO, PLRU} {
		cfg := Config{Name: "t", Size: 4096, Ways: 4, LineSize: 64, Policy: pol, Seed: 7}
		ref := MustNew(cfg)
		got := MustNew(cfg)
		var gotStats Stats
		rnd := uint64(0x1234567)
		for i := 0; i < 5000; i++ {
			rnd ^= rnd << 13
			rnd ^= rnd >> 7
			rnd ^= rnd << 17
			addr := (rnd % 512) * 64
			write := rnd&1 == 0
			r1 := ref.Access(addr, write)
			r2 := got.AccessLine(addr>>6, write, &gotStats)
			if r1 != r2 {
				t.Fatalf("%v: access %d diverges: got %+v want %+v", pol, i, r2, r1)
			}
		}
		if gotStats != ref.Stats {
			t.Errorf("%v: stats diverge: got %+v want %+v", pol, gotStats, ref.Stats)
		}
		if validLines(got) != validLines(ref) {
			t.Errorf("%v: valid lines diverge", pol)
		}
	}
}
