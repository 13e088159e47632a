package memostore

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// testCodec round-trips string values through JSON, like the Runner's
// Result codec but cheap enough for tight loops.
func testCodec() Codec {
	return Codec{
		Encode: func(v any) ([]byte, error) { return json.Marshal(v) },
		Decode: func(data []byte) (any, error) {
			var s string
			err := json.Unmarshal(data, &s)
			return s, err
		},
	}
}

func testKey(i int) Key {
	return Key{Version: "riscvmem/vTEST", Device: "devA", Workload: fmt.Sprintf("w%04d", i)}
}

func TestMemoryHitMissAndStats(t *testing.T) {
	m := NewMemory(64)
	k := testKey(1)
	if _, tier, ok := m.Get(k); ok || tier != TierNone {
		t.Fatalf("empty store Get = (%v, %v), want miss", tier, ok)
	}
	m.Put(k, "v1")
	v, tier, ok := m.Get(k)
	if !ok || tier != TierMemory || v != "v1" {
		t.Fatalf("Get = (%v, %v, %v), want (v1, memory, true)", v, tier, ok)
	}
	m.Put(k, "v2") // refresh overwrites in place
	if v, _, _ := m.Get(k); v != "v2" {
		t.Fatalf("refreshed Get = %v, want v2", v)
	}
	s := m.Stats()
	if s.MemoryHits != 2 || s.MemoryMisses != 1 || s.MemoryEvictions != 0 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 0 evictions", s)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// TestMemoryLRUEviction pins the recency contract inside one shard: the
// least recently *used* entry goes, not the least recently inserted.
func TestMemoryLRUEviction(t *testing.T) {
	m := NewMemory(1) // one entry per shard
	// Find three distinct keys that land in the same shard so the test
	// exercises one LRU list deterministically.
	var keys []Key
	want := m.shard(testKey(0))
	for i := 0; len(keys) < 3; i++ {
		if k := testKey(i); m.shard(k) == want {
			keys = append(keys, k)
		}
	}
	a, b, c := keys[0], keys[1], keys[2]
	m.Put(a, "a")
	m.Put(b, "b") // evicts a (capacity 1)
	if _, _, ok := m.Get(a); ok {
		t.Fatal("a survived eviction")
	}
	if v, _, ok := m.Get(b); !ok || v != "b" {
		t.Fatal("b missing after eviction of a")
	}
	m.Put(c, "c") // evicts b
	if _, _, ok := m.Get(b); ok {
		t.Fatal("b survived eviction")
	}
	if got := m.Stats().MemoryEvictions; got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
}

// TestMemoryRecencyOrder pins that Get refreshes recency: with capacity 2
// in a shard, touching the older entry makes the other one the victim.
func TestMemoryRecencyOrder(t *testing.T) {
	m := NewMemory(2 * memShards) // two entries per shard
	var keys []Key
	want := m.shard(testKey(0))
	for i := 0; len(keys) < 3; i++ {
		if k := testKey(i); m.shard(k) == want {
			keys = append(keys, k)
		}
	}
	a, b, c := keys[0], keys[1], keys[2]
	m.Put(a, "a")
	m.Put(b, "b")
	m.Get(a)      // a is now most recent
	m.Put(c, "c") // must evict b
	if _, _, ok := m.Get(a); !ok {
		t.Fatal("recently-used a was evicted")
	}
	if _, _, ok := m.Get(b); ok {
		t.Fatal("least-recently-used b survived")
	}
}

// TestMemoryBounded floods the store and checks the capacity bound holds.
func TestMemoryBounded(t *testing.T) {
	const capacity = 128
	m := NewMemory(capacity)
	for i := 0; i < 10*capacity; i++ {
		m.Put(testKey(i), i)
	}
	if n := m.Len(); n > capacity {
		t.Fatalf("Len = %d exceeds capacity %d", n, capacity)
	}
	s := m.Stats()
	if s.MemoryEvictions == 0 {
		t.Fatal("flood caused no evictions")
	}
}

func TestMemoryConcurrent(t *testing.T) {
	m := NewMemory(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := testKey(i % 300)
				m.Put(k, i)
				m.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if n := m.Len(); n > 256 {
		t.Fatalf("Len = %d exceeds capacity", n)
	}
}

func TestTieredPromotion(t *testing.T) {
	disk, err := OpenDisk(t.TempDir(), testCodec())
	if err != nil {
		t.Fatal(err)
	}
	st := NewTiered(NewMemory(64), disk)
	k := testKey(1)
	st.Put(k, "v")

	// A second tiered store over the same directory simulates a restart:
	// cold memory, warm disk.
	disk2, err := OpenDisk(disk.Dir(), testCodec())
	if err != nil {
		t.Fatal(err)
	}
	st2 := NewTiered(NewMemory(64), disk2)
	v, tier, ok := st2.Get(k)
	if !ok || tier != TierDisk || v != "v" {
		t.Fatalf("restart Get = (%v, %v, %v), want (v, disk, true)", v, tier, ok)
	}
	// The disk hit was promoted: the next Get is a memory hit.
	if _, tier, ok := st2.Get(k); !ok || tier != TierMemory {
		t.Fatalf("post-promotion Get tier = %v, want memory", tier)
	}
	s := st2.Stats()
	if s.DiskHits != 1 || s.MemoryHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit and 1 memory hit", s)
	}
}

func TestKeyHashOrderIndependence(t *testing.T) {
	// Distinct coordinate splits must not collide: the separator keeps
	// (device="ab", workload="c") apart from (device="a", workload="bc").
	k1 := Key{Version: "v", Device: "ab", Workload: "c"}
	k2 := Key{Version: "v", Device: "a", Workload: "bc"}
	if keyHash(k1) == keyHash(k2) {
		t.Fatal("key hash collides across coordinate boundaries")
	}
	if keyHash(k1) != keyHash(k1) {
		t.Fatal("key hash is not deterministic")
	}
}
