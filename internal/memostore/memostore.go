// Package memostore is the persistent tiered result cache behind the
// Runner's memoization: a bounded in-memory LRU (the L1 tier) over an
// optional on-disk content-addressed store (the L2 tier). A result computed
// once is served from memory while it stays hot, and from disk after
// eviction or a process restart; the disk tier can be exported, shipped to
// CI, and shared across a fleet.
//
// The contract mirrors what makes the memo sound in the first place: a
// cached value is a pure function of its Key, and every coordinate of the
// Key is a canonical, order-stable encoding —
//
//   - Version: the cache namespace: module identity, model version and
//     key-format version (run.CacheVersion). Any change that legitimately
//     alters golden cycle counts, or changes how an entry is keyed or
//     framed, bumps it, which cleanly orphans every stale
//     on-disk entry: old entries are simply never looked up again, and
//     `memo gc` reclaims them.
//   - Device: the device's parameter digest (machine.Spec.Identity).
//   - Workload: the workload's self-declared CacheKey (the canonical
//     WorkloadSpec encoding for the built-in kernels).
//
// A disk entry is one file: a header line carrying the sha256 of the bytes
// that follow it, which are the three coordinates, each ended by 0x1f, and
// then the payload. A read is the address hash, one file read, one hash
// over the body, three cuts and the codec's decode; no other parse. A
// coordinate holding 0x1f cannot be framed, and the disk tier refuses to
// persist it. Snapshots (Export, Import) carry the same entries as JSON
// lines.
//
// Tiers are fail-soft by design. The disk tier treats every fault as a
// miss, never an error: corrupt, truncated, or version-mismatched entries
// are quarantined and re-simulated; a failed persist is counted and logged
// but never fails the request that produced the result. Writes are atomic
// (temp file + fsync + rename in the same directory), so concurrent
// readers — including other processes sharing the cache directory — never
// observe a partial entry, and a crash mid-write leaves only a temp file
// that `memo gc` removes.
package memostore

// Key identifies one memoized result. All three string coordinates must be
// canonical and stable across processes (see the package comment); two keys
// are the same entry exactly when the struct values are equal.
type Key struct {
	// Version namespaces the entry by model version + module identity.
	Version string
	// Device is the canonical device-parameter encoding.
	Device string
	// Workload is the workload's canonical cache key.
	Workload string
}

// Tier says which tier served a Get.
type Tier int

const (
	// TierNone is the zero Tier: the value was not in the store.
	TierNone Tier = iota
	// TierMemory is the in-memory LRU (L1).
	TierMemory
	// TierDisk is the on-disk content-addressed store (L2).
	TierDisk
)

// String names the tier as it appears in metrics labels.
func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	default:
		return "none"
	}
}

// Stats are the per-tier cache counters. All fields are cumulative; Sub
// yields the delta between two snapshots (the service reports per-request
// deltas this way). The JSON encoding is the wire form CacheStats carries.
type Stats struct {
	// MemoryHits / MemoryMisses count L1 lookups.
	MemoryHits   uint64 `json:"memory_hits"`
	MemoryMisses uint64 `json:"memory_misses"`
	// MemoryEvictions counts entries the bounded LRU pushed out.
	MemoryEvictions uint64 `json:"memory_evictions"`
	// DiskHits / DiskMisses count L2 lookups (a lookup that found a corrupt
	// entry counts as both a miss and a corruption).
	DiskHits   uint64 `json:"disk_hits"`
	DiskMisses uint64 `json:"disk_misses"`
	// DiskCorrupt counts entries quarantined as unreadable: truncated,
	// checksum-mismatched, mislabeled, or undecodable.
	DiskCorrupt uint64 `json:"disk_corrupt"`
	// DiskWrites counts entries persisted; DiskWriteErrors counts persists
	// that failed (the request that produced the result is unaffected).
	DiskWrites      uint64 `json:"disk_writes"`
	DiskWriteErrors uint64 `json:"disk_write_errors"`
}

// Sub returns the counter deltas s − base (tier stats at two points in
// time).
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		MemoryHits:      s.MemoryHits - base.MemoryHits,
		MemoryMisses:    s.MemoryMisses - base.MemoryMisses,
		MemoryEvictions: s.MemoryEvictions - base.MemoryEvictions,
		DiskHits:        s.DiskHits - base.DiskHits,
		DiskMisses:      s.DiskMisses - base.DiskMisses,
		DiskCorrupt:     s.DiskCorrupt - base.DiskCorrupt,
		DiskWrites:      s.DiskWrites - base.DiskWrites,
		DiskWriteErrors: s.DiskWriteErrors - base.DiskWriteErrors,
	}
}

// Add returns the counter sums s + other — the aggregation the cluster
// coordinator uses to fold per-worker tier deltas into one response.
func (s Stats) Add(other Stats) Stats {
	return Stats{
		MemoryHits:      s.MemoryHits + other.MemoryHits,
		MemoryMisses:    s.MemoryMisses + other.MemoryMisses,
		MemoryEvictions: s.MemoryEvictions + other.MemoryEvictions,
		DiskHits:        s.DiskHits + other.DiskHits,
		DiskMisses:      s.DiskMisses + other.DiskMisses,
		DiskCorrupt:     s.DiskCorrupt + other.DiskCorrupt,
		DiskWrites:      s.DiskWrites + other.DiskWrites,
		DiskWriteErrors: s.DiskWriteErrors + other.DiskWriteErrors,
	}
}

// Store is the tiered cache surface the Runner talks to. Implementations
// are safe for concurrent use, and Get/Put never fail: a value that cannot
// be served is a miss, a value that cannot be stored is dropped (and
// counted) — the cache only ever skips work, it never adds failure modes.
type Store interface {
	// Get returns the stored value for the key and the tier that served it.
	Get(key Key) (v any, tier Tier, ok bool)
	// Put stores the value under the key in every tier that accepts it.
	Put(key Key, v any)
	// Stats snapshots the per-tier counters.
	Stats() Stats
}

// Codec converts between the in-memory value the caller caches and the
// canonical byte payload the disk tier persists. Encode must be
// deterministic enough that Decode(Encode(v)) is semantically identical to
// v. The disk tier persists Encode's bytes verbatim and hands Decode a
// payload it owns (a copy, never a view of the file it read), so a decoded
// value may keep it. The Runner's codec stores a run.Result's JSON, which
// preserves every field bit-for-bit (Go renders float64 in shortest
// round-trip form), and keeps the payload as the value's encoding.
type Codec struct {
	Encode func(v any) ([]byte, error)
	Decode func(data []byte) (any, error)
}
