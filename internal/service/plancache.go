package service

import (
	"container/list"
	"sync"
)

// The plan cache's bounds. A held plan costs its key (the body), the
// decoded request (about the body again: spec strings are copied out of
// it) and, per job, at most about 2 KiB: the run.Job with its device Spec,
// the spec's parameter map, the resolved workload, and for a sweep the
// cell's deep-cloned Spec. So the cache holds at most about
// 2×planCacheBytes + planCacheJobs×2 KiB ≈ 40 MiB, however many of
// planCacheEntries it holds.
const (
	// planCacheEntries caps the bodies held.
	planCacheEntries = 256
	// planCacheBytes caps the body bytes held: four 1 MiB bodies.
	planCacheBytes = 4 << 20
	// planCacheJobs caps the jobs of the plans held: four plans at the
	// default MaxJobs.
	planCacheJobs = 16 << 10
)

// planCache maps exact request bytes — the endpoint, a space, the body; or
// a cluster worker's recipe, which starts with '{' — to the Plan they
// produced, least recently used first out. The key is the bytes
// themselves, so a lookup compares every byte and two bodies never share
// an entry. Only bodies that decoded and planned are stored, and a stored
// Plan is shared read-only by every request that hits it. Safe for
// concurrent use; the zero value is empty.
type planCache struct {
	mu          sync.Mutex
	entries     map[string]*list.Element // of *planEntry
	lru         list.List                // most recently used first
	bytes, jobs int                      // held, against the caps
}

type planEntry struct {
	key  string
	plan *Plan
}

// get returns the plan stored under key, or nil.
func (c *planCache) get(key []byte) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[string(key)]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(e)
	return e.Value.(*planEntry).plan
}

// put stores p under key, evicting the least recently used entries until
// every cap holds. A plan bigger than a cap on its own is not stored; a key
// already stored (concurrent misses on one body) keeps its plan.
func (c *planCache) put(key []byte, p *Plan) {
	if len(key) > planCacheBytes || len(p.Jobs) > planCacheJobs {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[string(key)]; ok {
		return
	}
	if c.entries == nil {
		c.entries = make(map[string]*list.Element)
	}
	e := &planEntry{key: string(key), plan: p}
	c.entries[e.key] = c.lru.PushFront(e)
	c.bytes += len(e.key)
	c.jobs += len(p.Jobs)
	for len(c.entries) > planCacheEntries || c.bytes > planCacheBytes || c.jobs > planCacheJobs {
		old := c.lru.Remove(c.lru.Back()).(*planEntry)
		delete(c.entries, old.key)
		c.bytes -= len(old.key)
		c.jobs -= len(old.plan.Jobs)
	}
}
