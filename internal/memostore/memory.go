package memostore

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// DefaultMemoryEntries is the memory tier's default capacity. Entries are
// under a kilobyte: the Runner's entry is a Result, its key strings and the
// Result's ≈ 370-byte JSON row (the rows alone are about 24 MiB across
// 65 536 entries). So the default bounds the tier to a few tens of MB while
// still holding every cell of any realistic sweep.
const DefaultMemoryEntries = 65536

// memShards is the memory tier's shard count; a power of two. Sharding
// keeps large parallel batches of distinct cells from serializing on one
// mutex, mirroring the Runner's in-flight map.
const memShards = 16

// Memory is the bounded in-memory LRU tier. Safe for concurrent use.
type Memory struct {
	seed   maphash.Seed
	shards [memShards]memShard

	hits   atomic.Uint64
	misses atomic.Uint64
	evicts atomic.Uint64
}

// memShard is one LRU segment: a map into an intrusive doubly-linked list
// ordered most- to least-recently used. Each shard holds cap/memShards
// entries, so eviction is approximate LRU across the whole tier — exact
// within a shard, and a key always lands in the same shard.
type memShard struct {
	mu         sync.Mutex
	m          map[Key]*memEntry
	head, tail *memEntry // head = most recently used
	capacity   int
}

type memEntry struct {
	key        Key
	val        any
	prev, next *memEntry
}

// NewMemory builds a memory tier bounded to at most `entries` values
// (entries <= 0 selects DefaultMemoryEntries).
func NewMemory(entries int) *Memory {
	if entries <= 0 {
		entries = DefaultMemoryEntries
	}
	perShard := (entries + memShards - 1) / memShards
	if perShard < 1 {
		perShard = 1
	}
	m := &Memory{seed: maphash.MakeSeed()}
	for i := range m.shards {
		m.shards[i].m = make(map[Key]*memEntry)
		m.shards[i].capacity = perShard
	}
	return m
}

// shard picks the segment for a key. Both identity coordinates feed the
// hash so neither many-devices×few-workloads nor the converse collapses
// onto one shard.
func (m *Memory) shard(key Key) *memShard {
	h := maphash.String(m.seed, key.Device) ^ maphash.String(m.seed, key.Workload)
	return &m.shards[h&(memShards-1)]
}

// Get returns the cached value and refreshes its recency.
func (m *Memory) Get(key Key) (any, Tier, bool) {
	sh := m.shard(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		m.misses.Add(1)
		return nil, TierNone, false
	}
	sh.moveToFront(e)
	v := e.val
	sh.mu.Unlock()
	m.hits.Add(1)
	return v, TierMemory, true
}

// Put inserts (or refreshes) the value, evicting the shard's least recently
// used entry when the shard is full.
func (m *Memory) Put(key Key, v any) {
	sh := m.shard(key)
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		e.val = v
		sh.moveToFront(e)
		sh.mu.Unlock()
		return
	}
	e := &memEntry{key: key, val: v}
	sh.m[key] = e
	sh.pushFront(e)
	var evicted bool
	if len(sh.m) > sh.capacity {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.m, victim.key)
		evicted = true
	}
	sh.mu.Unlock()
	if evicted {
		m.evicts.Add(1)
	}
}

// Len reports the entries currently held across all shards.
func (m *Memory) Len() int {
	n := 0
	for i := range m.shards {
		m.shards[i].mu.Lock()
		n += len(m.shards[i].m)
		m.shards[i].mu.Unlock()
	}
	return n
}

// Stats snapshots the tier's counters.
func (m *Memory) Stats() Stats {
	return Stats{
		MemoryHits:      m.hits.Load(),
		MemoryMisses:    m.misses.Load(),
		MemoryEvictions: m.evicts.Load(),
	}
}

func (sh *memShard) pushFront(e *memEntry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *memShard) unlink(e *memEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *memShard) moveToFront(e *memEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}
