package memostore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"sync/atomic"

	"riscvmem/internal/faultinject"
)

// Entry-file format constants. entryMagic names the format; entryFormat is
// its schema version — bump it only when the envelope layout itself changes
// (the *model* version lives in the Key and namespaces the directory tree).
const (
	entryMagic  = "riscvmem-memo"
	entryFormat = 1
	entryExt    = ".memo"
	// quarantineDir collects entries that failed validation, preserved for
	// post-mortem instead of deleted; `memo gc` purges it.
	quarantineDir = "quarantine"
	tmpPrefix     = ".tmp-"
)

// Disk is the on-disk content-addressed tier: one atomically-written,
// checksummed file per key under
//
//	<dir>/<escaped version>/<hh>/<sha256>.memo
//
// where hh is the first hex byte of the key hash (a fan-out level keeping
// directories small) and the sha256 covers (version, device, workload). The
// file is a JSON envelope carrying the key coordinates verbatim, the
// payload, and a checksum over both — so a Get validates that the entry is
// intact AND that it really is the requested key before trusting it.
//
// Every fault is a miss, never an error: unreadable, truncated, mislabeled
// or undecodable entries are quarantined (moved aside, counted) and the
// caller re-simulates. Writes go through a temp file + fsync + rename in
// the entry's own directory, so concurrent readers — in this process or
// another sharing the directory — never observe a partial entry.
//
// Safe for concurrent use.
type Disk struct {
	dir   string
	codec Codec

	// Logf, when set, receives one line per quarantine and per failed
	// persist; nil discards them. Set it before first use.
	Logf func(format string, args ...any)

	hits      atomic.Uint64
	misses    atomic.Uint64
	corrupt   atomic.Uint64
	writes    atomic.Uint64
	writeErrs atomic.Uint64
}

// envelope is the on-disk entry schema.
type envelope struct {
	Magic    string          `json:"magic"`
	Format   int             `json:"format"`
	Version  string          `json:"version"`
	Device   string          `json:"device"`
	Workload string          `json:"workload"`
	Sum      string          `json:"sum"`
	Result   json.RawMessage `json:"result"`
}

// sum is the entry checksum: sha256 over the key coordinates and the
// payload, so a bit flip anywhere in the entry — including a swapped or
// edited key field — fails validation.
func (e *envelope) sum() string {
	h := sha256.New()
	for _, part := range []string{e.Version, e.Device, e.Workload} {
		h.Write([]byte(part))
		h.Write([]byte{0x1f})
	}
	h.Write(e.Result)
	return hex.EncodeToString(h.Sum(nil))
}

// validate checks an envelope's integrity; expect, when non-nil, addition-
// ally pins the key coordinates to the requested key.
func (e *envelope) validate(expect *Key) error {
	if e.Magic != entryMagic || e.Format != entryFormat {
		return fmt.Errorf("not a %s/%d entry (magic %q format %d)", entryMagic, entryFormat, e.Magic, e.Format)
	}
	if expect != nil && (e.Version != expect.Version || e.Device != expect.Device || e.Workload != expect.Workload) {
		return errors.New("entry key does not match requested key")
	}
	if len(e.Result) == 0 {
		return errors.New("entry has no payload")
	}
	if e.Sum != e.sum() {
		return errors.New("entry checksum mismatch")
	}
	return nil
}

// parseEntry decodes and validates one entry file's bytes; expect, when
// non-nil, pins the key coordinates. The payload it returns is a copy, never
// a view of raw (json.RawMessage's UnmarshalJSON copies), so a decoded value
// that keeps its payload does not pin the file's whole read buffer.
func parseEntry(raw []byte, expect *Key) (*envelope, error) {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("unparseable entry: %w", err)
	}
	if err := env.validate(expect); err != nil {
		return nil, err
	}
	return &env, nil
}

// OpenDisk opens (creating if needed) a disk tier rooted at dir.
func OpenDisk(dir string, codec Codec) (*Disk, error) {
	if dir == "" {
		return nil, errors.New("memostore: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memostore: %w", err)
	}
	return &Disk{dir: dir, codec: codec}, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// keyHash is the content address: sha256 over the canonical key encoding.
func keyHash(key Key) string {
	h := sha256.New()
	for _, part := range []string{key.Version, key.Device, key.Workload} {
		h.Write([]byte(part))
		h.Write([]byte{0x1f})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// entryPath maps a key to its file. The version becomes a directory level
// (path-escaped — versions contain '/'), so orphaning a model version is a
// directory removal and `memo ls` can group by version without reading
// entries.
func (d *Disk) entryPath(key Key) string {
	hash := keyHash(key)
	return filepath.Join(d.dir, url.PathEscape(key.Version), hash[:2], hash+entryExt)
}

func (d *Disk) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// Get loads, validates, and decodes the entry for the key. Any validation
// failure quarantines the entry and reports a miss.
func (d *Disk) Get(key Key) (any, Tier, bool) {
	path := d.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		// Not-exist is the ordinary cold miss; any other read error (a
		// permission change, an I/O fault) is likewise served as a miss —
		// the cache must only ever skip work.
		d.misses.Add(1)
		if !errors.Is(err, fs.ErrNotExist) {
			d.logf("memostore: reading %s: %v", path, err)
		}
		return nil, TierNone, false
	}
	env, err := parseEntry(raw, &key)
	if err != nil {
		d.quarantine(path, err)
		return nil, TierNone, false
	}
	v, err := d.codec.Decode(env.Result)
	if err != nil {
		d.quarantine(path, fmt.Errorf("undecodable payload: %w", err))
		return nil, TierNone, false
	}
	d.hits.Add(1)
	return v, TierDisk, true
}

// quarantine moves a failed entry aside (same filename under quarantine/,
// last failure wins) and counts it as both a corruption and a miss. The
// move is best-effort: when it fails — say another process already
// quarantined the same entry — the entry is simply left for the next
// reader.
func (d *Disk) quarantine(path string, reason error) {
	d.corrupt.Add(1)
	d.misses.Add(1)
	d.logf("memostore: quarantining %s: %v", path, reason)
	qdir := filepath.Join(d.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	_ = os.Rename(path, filepath.Join(qdir, filepath.Base(path)))
}

// Put persists the value. Failures are counted and logged, never returned:
// the result being persisted already exists in memory and belongs to a
// request that must not fail because a disk was full. The write is
// atomic — temp file in the entry's directory, fsync, rename — so readers
// never see a partial entry and a crash leaves only a temp file behind.
func (d *Disk) Put(key Key, v any) {
	if err := d.put(key, v); err != nil {
		d.writeErrs.Add(1)
		d.logf("memostore: persisting entry: %v", err)
		return
	}
	d.writes.Add(1)
}

func (d *Disk) put(key Key, v any) error {
	if err := faultinject.Fire(faultinject.MemoPersist); err != nil {
		return err
	}
	payload, err := d.codec.Encode(v)
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	env := envelope{
		Magic: entryMagic, Format: entryFormat,
		Version: key.Version, Device: key.Device, Workload: key.Workload,
		Result: payload,
	}
	env.Sum = env.sum()
	return d.writeEnvelope(env)
}

// writeEnvelope atomically writes one validated envelope to its path;
// shared by Put and Import.
func (d *Disk) writeEnvelope(env envelope) error {
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("marshal: %w", err)
	}
	path := d.entryPath(Key{Version: env.Version, Device: env.Device, Workload: env.Workload})
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	// The temp file lives in the destination directory so the final rename
	// never crosses filesystems (rename atomicity) and gc can sweep strays.
	f, err := os.CreateTemp(filepath.Dir(path), tmpPrefix)
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Stats snapshots the tier's counters.
func (d *Disk) Stats() Stats {
	return Stats{
		DiskHits:        d.hits.Load(),
		DiskMisses:      d.misses.Load(),
		DiskCorrupt:     d.corrupt.Load(),
		DiskWrites:      d.writes.Load(),
		DiskWriteErrors: d.writeErrs.Load(),
	}
}
