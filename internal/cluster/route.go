package cluster

// Routing is rendezvous (highest-random-weight) hashing: a cell belongs to
// the live worker with the largest mix64(cellHash ^ workerHash). It is a
// function of the key and the membership, with no table to build or keep
// consistent, and it gives by construction the two properties scheduling
// relies on: identical cells land on the same worker while membership is
// stable (so that worker's singleflight and warm memo tiers deduplicate
// them cluster-wide), and a join or a leave moves only the keys the joiner
// wins or the leaver owned. Both hashes are FNV-1a, not maphash, so the
// mapping survives process and coordinator restarts and cells keep going to
// the workers whose disk caches hold them; the finalizer supplies the
// avalanche FNV-1a lacks between IDs that differ in their last byte.

// hashKey is 64-bit FNV-1a, inlined so hashing a kilobyte shard key copies
// nothing.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// route returns the owner of a cell hash among workers, nil when there are
// none. Equal weights go to the smaller ID, so map order cannot matter.
func route(workers map[string]*workerState, cell uint64) *workerState {
	var owner *workerState
	var top uint64
	for _, ws := range workers {
		w := mix64(cell ^ ws.hash)
		if owner == nil || w > top || w == top && ws.id < owner.id {
			owner, top = ws, w
		}
	}
	return owner
}
