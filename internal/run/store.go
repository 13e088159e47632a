package run

import (
	"bytes"
	"encoding/json"
	"fmt"

	"riscvmem/internal/memostore"
	"riscvmem/internal/sim"
)

// CacheVersion is the namespace every persisted memo entry lives under: the
// module identity, the simulation model version, and the key-format
// version. Two rules change it, and either one cleanly orphans every
// previously persisted result, which `memo gc -stale` then reclaims:
//
//   - sim.ModelVersion is bumped when simulated results change (see its
//     versioning contract);
//   - the ".kN" suffix is bumped when how an entry is keyed or framed
//     changes (machine.Spec.Identity, a workload CacheKey, the memo
//     store's entry file) while results do not.
//
// k2: the Device coordinate became the Spec.Identity digest.
// k3: an entry file became a header line over its checksummed bytes.
const CacheVersion = "riscvmem/v" + sim.ModelVersion + ".k3"

// memoRow is one memoized cell as the memo store holds it: the Result and
// its JSON encoding. The encoding is produced once, by newMemoRow when the
// runner first stores the result; the disk tier persists exactly those
// bytes, and the service splices them into every reply that serves the
// cell. A memoRow is immutable once stored.
type memoRow struct {
	res  Result
	json []byte // json.Marshal(res); nil when res does not encode
}

// newMemoRow encodes a freshly simulated result. The simulator never
// produces NaN or Inf; a custom workload that does keeps its result in the
// memory tier without an encoding, so the disk tier refuses to persist it
// and a reply that carries it fails to encode, as it would without a memo.
func newMemoRow(res Result) *memoRow {
	js, err := json.Marshal(res)
	if err != nil {
		js = nil
	}
	return &memoRow{res: res, json: js}
}

// ResultCodec converts memoized Results to and from the canonical byte
// payload the disk tier persists: json.Marshal of the Result, which
// round-trips every field bit-for-bit (Go renders float64 in shortest
// round-trip form). Encode returns the bytes the row already holds; Decode
// keeps the payload it reads as the row's encoding, so a result served from
// disk is never encoded again. Decoding is strict — an entry whose payload
// carries fields the current Result does not know is treated as corrupt
// (quarantined, re-simulated) rather than silently half-read.
func ResultCodec() memostore.Codec {
	return memostore.Codec{
		Encode: func(v any) ([]byte, error) {
			row, ok := v.(*memoRow)
			if !ok {
				return nil, fmt.Errorf("run: memo store asked to encode %T, not a memoized run.Result", v)
			}
			if row.json == nil {
				return nil, fmt.Errorf("run: %s on %s: result has no JSON encoding", row.res.Workload, row.res.Device)
			}
			return row.json, nil
		},
		Decode: func(data []byte) (any, error) {
			var res Result
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				return nil, err
			}
			return &memoRow{res: res, json: data}, nil
		},
	}
}

// OpenStore builds the standard tiered result store: a bounded in-memory
// LRU (memEntries entries; <= 0 selects the memostore default) over an
// on-disk content-addressed tier rooted at dir. An empty dir yields a
// memory-only store — what a Runner without explicit Options.Store gets.
// logf (optional) receives the disk tier's operational lines (quarantines,
// failed persists).
func OpenStore(dir string, memEntries int, logf func(format string, args ...any)) (*memostore.Tiered, error) {
	mem := memostore.NewMemory(memEntries)
	if dir == "" {
		return memostore.NewTiered(mem, nil), nil
	}
	disk, err := memostore.OpenDisk(dir, ResultCodec())
	if err != nil {
		return nil, err
	}
	disk.Logf = logf
	return memostore.NewTiered(mem, disk), nil
}
