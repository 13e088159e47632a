package memostore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"riscvmem/internal/faultinject"
)

// Entry-file format constants. An entry file is one header line followed by
// its body, the exact bytes its checksum covers:
//
//	riscvmem-memo 2 <sha256 of the body, 64 hex digits>\n
//	version 0x1f device 0x1f workload 0x1f payload
//
// entryFormat versions that framing; bump it only when the framing itself
// changes, together with run.CacheVersion (the *model* version lives in the
// Key and namespaces the directory tree). A snapshot line keeps its own
// JSON schema and version (lineFormat, snapshot.go).
const (
	entryMagic  = "riscvmem-memo"
	entryFormat = "2"
	entryPrefix = entryMagic + " " + entryFormat + " "
	// entryHeaderLen is the header line's length, newline included.
	entryHeaderLen = len(entryPrefix) + 2*sha256.Size + 1
	// keySep ends each key coordinate in an entry body and in the key hash;
	// a coordinate that contains it cannot be framed.
	keySep   = 0x1f
	entryExt = ".memo"
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
// file is a header line carrying a checksum over the body that follows it:
// the key coordinates verbatim, then the payload — so a Get validates that
// the entry is intact AND that it really is the requested key before
// trusting it, and parses nothing but the payload.
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

// entry is one parsed and validated entry file.
type entry struct {
	key     Key
	sum     [sha256.Size]byte // over the body: the coordinates, then payload
	payload []byte            // a copy, never a view of the file's bytes
}

// appendKey appends the key coordinates, each ended by keySep: the key
// hash's input and the head of an entry body.
func appendKey(dst []byte, key Key) []byte {
	for _, part := range [...]string{key.Version, key.Device, key.Workload} {
		dst = append(dst, part...)
		dst = append(dst, keySep)
	}
	return dst
}

// checkFramable refuses a key with keySep inside a coordinate: its body
// would cut back into a different key, so every read of it would be
// quarantined, and two such keys can share one body.
func checkFramable(key Key) error {
	for _, part := range [...]string{key.Version, key.Device, key.Workload} {
		if strings.IndexByte(part, keySep) >= 0 {
			return fmt.Errorf("key coordinate %q contains the separator byte 0x1f", part)
		}
	}
	return nil
}

// frameEntry renders an entry file: the header line, then the body.
func frameEntry(key Key, payload []byte) []byte {
	n := len(key.Version) + len(key.Device) + len(key.Workload) + 3 + len(payload)
	buf := make([]byte, entryHeaderLen, entryHeaderLen+n)
	copy(buf, entryPrefix)
	buf[entryHeaderLen-1] = '\n'
	buf = append(appendKey(buf, key), payload...)
	sum := sha256.Sum256(buf[entryHeaderLen:])
	hex.Encode(buf[len(entryPrefix):], sum[:])
	return buf
}

// parseEntry validates one entry file's bytes and cuts them into an entry;
// expect, when non-nil, pins the key coordinates (compared without
// allocating). The payload it returns is a copy, never a view of raw, so a
// decoded value that keeps its payload does not pin the file's whole read
// buffer.
func parseEntry(raw []byte, expect *Key) (entry, error) {
	var e entry
	if len(raw) < entryHeaderLen || string(raw[:len(entryPrefix)]) != entryPrefix || raw[entryHeaderLen-1] != '\n' {
		return e, fmt.Errorf("not a %s/%s entry", entryMagic, entryFormat)
	}
	if _, err := hex.Decode(e.sum[:], raw[len(entryPrefix):entryHeaderLen-1]); err != nil {
		return e, fmt.Errorf("entry header: %w", err)
	}
	body := raw[entryHeaderLen:]
	if sha256.Sum256(body) != e.sum {
		return e, errors.New("entry checksum mismatch")
	}
	var coords [3][]byte
	for i := range coords {
		j := bytes.IndexByte(body, keySep)
		if j < 0 {
			return e, fmt.Errorf("entry body holds %d of 3 key coordinates", i)
		}
		coords[i], body = body[:j], body[j+1:]
	}
	if expect != nil {
		if string(coords[0]) != expect.Version || string(coords[1]) != expect.Device || string(coords[2]) != expect.Workload {
			return e, errors.New("entry key does not match requested key")
		}
		e.key = *expect
	} else {
		e.key = Key{Version: string(coords[0]), Device: string(coords[1]), Workload: string(coords[2])}
	}
	if len(body) == 0 {
		return e, errors.New("entry has no payload")
	}
	e.payload = bytes.Clone(body)
	return e, nil
}

// OpenDisk opens (creating if needed) a disk tier rooted at dir.
func OpenDisk(dir string, codec Codec) (*Disk, error) {
	if dir == "" {
		return nil, errors.New("memostore: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memostore: %w", err)
	}
	return &Disk{dir: filepath.Clean(dir), codec: codec}, nil
}

// keyHash is the content address: sha256 over the canonical key encoding,
// in hex.
func keyHash(key Key) (hash [2 * sha256.Size]byte) {
	var buf [256]byte
	sum := sha256.Sum256(appendKey(buf[:0], key))
	hex.Encode(hash[:], sum[:])
	return hash
}

// entryPath maps a key to its file. The version becomes a directory level
// (path-escaped — versions contain '/'), so orphaning a model version is a
// directory removal and `memo ls` can group by version without reading
// entries. The root is clean (OpenDisk), so one concatenation builds what
// filepath.Join would.
func (d *Disk) entryPath(key Key) string {
	hash := keyHash(key)
	sep := string(filepath.Separator)
	return d.dir + sep + url.PathEscape(key.Version) + sep + string(hash[:2]) + sep + string(hash[:]) + entryExt
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
	e, err := parseEntry(raw, &key)
	if err != nil {
		d.quarantine(path, err)
		return nil, TierNone, false
	}
	v, err := d.codec.Decode(e.payload)
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
	if err := checkFramable(key); err != nil {
		return err
	}
	payload, err := d.codec.Encode(v)
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	return d.writeFile(key, frameEntry(key, payload))
}

// writeFile atomically writes one framed entry file (frameEntry) to the
// key's path; shared by Put and Import, which have both checked that the
// key frames.
func (d *Disk) writeFile(key Key, data []byte) error {
	path := d.entryPath(key)
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
