package memostore

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"strings"
)

// Snapshot stream format: a header line followed by one JSON entry line
// per entry. A line carries the entry's coordinates, its checksum and its
// payload — the entry file's contents in JSON, under the line's own
// version (lineFormat) — so import re-validates every entry end to end and
// a snapshot is portable across machines and processes.
const (
	snapshotMagic  = "riscvmem-memo-snapshot"
	snapshotFormat = 1
	// lineFormat versions a snapshot line's schema, independently of the
	// entry file's framing (entryFormat).
	lineFormat = 1
	// maxSnapshotLine bounds one snapshot entry; results are a few KB, so
	// 4 MiB is generous headroom.
	maxSnapshotLine = 4 << 20
)

type snapshotHeader struct {
	Magic  string `json:"magic"`
	Format int    `json:"format"`
}

// snapshotLine is one entry as a snapshot carries it.
type snapshotLine struct {
	Magic    string          `json:"magic"`
	Format   int             `json:"format"`
	Version  string          `json:"version"`
	Device   string          `json:"device"`
	Workload string          `json:"workload"`
	Sum      string          `json:"sum"`
	Result   json.RawMessage `json:"result"`
}

// EntryInfo describes one on-disk entry during Walk. Err is non-nil when
// the entry failed validation (it is still reported, so `memo ls` can show
// damage without mutating the store).
type EntryInfo struct {
	Key  Key
	Path string
	Size int64
	Err  error
}

// Walk visits every entry file under the store root in lexical path order,
// validating each (read-only: a corrupt entry is reported via Err, not
// quarantined). The quarantine directory and in-progress temp files are
// skipped. Returning a non-nil error from fn stops the walk.
func (d *Disk) Walk(fn func(EntryInfo) error) error {
	return d.walk(func(info EntryInfo, _ *entry) error { return fn(info) })
}

// walk is Walk that also hands fn the parsed entry (nil when Err is set).
func (d *Disk) walk(fn func(EntryInfo, *entry) error) error {
	return filepath.WalkDir(d.dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			if path != d.dir && de.Name() == quarantineDir {
				return filepath.SkipDir
			}
			return nil
		}
		name := de.Name()
		if strings.HasPrefix(name, tmpPrefix) || !strings.HasSuffix(name, entryExt) {
			return nil
		}
		info := EntryInfo{Path: path}
		if fi, err := de.Info(); err == nil {
			info.Size = fi.Size()
		}
		e, err := readEntry(path)
		if err != nil {
			info.Err = err
			return fn(info, nil)
		}
		info.Key = e.key
		if hash := keyHash(e.key); name != string(hash[:])+entryExt {
			// The entry is internally consistent but sits at the wrong
			// address — a hand-copied or renamed file. Get would never find
			// it, so surface it as damage.
			info.Err = fmt.Errorf("entry filename does not match its key hash (want %s%s)", hash[:], entryExt)
			return fn(info, nil)
		}
		return fn(info, &e)
	})
}

// readEntry loads and validates one entry file (checksum included).
func readEntry(path string) (entry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return entry{}, err
	}
	return parseEntry(raw, nil)
}

// ExportStats reports what Export wrote.
type ExportStats struct {
	Entries int // valid entries written to the snapshot
	Skipped int // invalid entries left out
}

// Export streams every valid entry to w as a snapshot (header line plus one
// entry line per entry). Invalid entries are skipped and counted, never
// exported — a snapshot is always fully importable.
func (d *Disk) Export(w io.Writer) (ExportStats, error) {
	var stats ExportStats
	enc := json.NewEncoder(w) // Encode appends the newline that delimits lines
	if err := enc.Encode(snapshotHeader{Magic: snapshotMagic, Format: snapshotFormat}); err != nil {
		return stats, err
	}
	err := d.walk(func(_ EntryInfo, e *entry) error {
		if e == nil {
			stats.Skipped++
			return nil
		}
		line := snapshotLine{
			Magic: entryMagic, Format: lineFormat,
			Version: e.key.Version, Device: e.key.Device, Workload: e.key.Workload,
			Sum: hex.EncodeToString(e.sum[:]), Result: e.payload,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
		stats.Entries++
		return nil
	})
	return stats, err
}

// parseLine validates one snapshot entry line: its schema, that its key
// frames, and its checksum — by framing the entry, whose header carries the
// same sum over the same bytes. It returns the key and the framed file.
func parseLine(raw []byte) (Key, []byte, error) {
	var line snapshotLine
	if err := json.Unmarshal(raw, &line); err != nil {
		return Key{}, nil, fmt.Errorf("unparseable line: %w", err)
	}
	if line.Magic != entryMagic || line.Format != lineFormat {
		return Key{}, nil, fmt.Errorf("not a %s/%d line (magic %q format %d)", entryMagic, lineFormat, line.Magic, line.Format)
	}
	key := Key{Version: line.Version, Device: line.Device, Workload: line.Workload}
	if err := checkFramable(key); err != nil {
		return Key{}, nil, err
	}
	if len(line.Result) == 0 {
		return Key{}, nil, errors.New("line has no payload")
	}
	file := frameEntry(key, line.Result)
	if string(file[len(entryPrefix):entryHeaderLen-1]) != line.Sum {
		return Key{}, nil, errors.New("line checksum mismatch")
	}
	return key, file, nil
}

// ImportStats reports what Import did.
type ImportStats struct {
	Added    int // entries new to this store
	Replaced int // entries that already existed (overwritten; same content for a same-version key)
	Invalid  int // snapshot lines that failed validation, skipped
}

// Import reads a snapshot stream and installs every valid entry through the
// same atomic write path Put uses. Entries land under the version recorded
// in the snapshot — importing an old snapshot into a newer model simply
// files the stale entries where Get never looks and `memo gc` reclaims
// them. Invalid lines are skipped and counted; only a malformed header or
// an I/O failure aborts.
func (d *Disk) Import(r io.Reader) (ImportStats, error) {
	var stats ImportStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxSnapshotLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return stats, err
		}
		return stats, fmt.Errorf("memostore: empty snapshot")
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Magic != snapshotMagic || hdr.Format != snapshotFormat {
		return stats, fmt.Errorf("memostore: not a %s/%d snapshot", snapshotMagic, snapshotFormat)
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		key, file, err := parseLine(line)
		if err != nil {
			stats.Invalid++
			continue
		}
		_, statErr := os.Stat(d.entryPath(key))
		if err := d.writeFile(key, file); err != nil {
			return stats, err
		}
		if statErr == nil {
			stats.Replaced++
		} else {
			stats.Added++
		}
	}
	return stats, sc.Err()
}

// GCStats reports what GC removed.
type GCStats struct {
	StaleEntries  int // entries removed from orphaned version namespaces
	StaleVersions int // version directories removed wholesale
	TempFiles     int // abandoned in-progress temp files
	Quarantined   int // quarantined entries purged
}

// GC reclaims dead weight from the store directory: quarantined entries,
// temp files a crash left behind, and — when keepVersion is non-empty —
// every entry belonging to a different version namespace (the cache-
// versioning contract's cleanup half: a version bump orphans old entries,
// GC deletes them). An empty keepVersion keeps all versions.
func (d *Disk) GC(keepVersion string) (GCStats, error) {
	var stats GCStats
	tops, err := os.ReadDir(d.dir)
	if err != nil {
		return stats, err
	}
	for _, top := range tops {
		path := filepath.Join(d.dir, top.Name())
		switch {
		case !top.IsDir():
			if strings.HasPrefix(top.Name(), tmpPrefix) {
				if os.Remove(path) == nil {
					stats.TempFiles++
				}
			}
		case top.Name() == quarantineDir:
			n, err := removeTree(path)
			stats.Quarantined += n
			if err != nil {
				return stats, err
			}
		default:
			version, uerr := url.PathUnescape(top.Name())
			stale := keepVersion != "" && (uerr != nil || version != keepVersion)
			n, err := sweepVersionDir(path, stale)
			if stale {
				stats.StaleEntries += n
				stats.StaleVersions++
			} else {
				stats.TempFiles += n
			}
			if err != nil {
				return stats, err
			}
		}
	}
	return stats, nil
}

// sweepVersionDir removes either the whole version tree (stale: counting
// its entries) or just its abandoned temp files (live: counting those).
func sweepVersionDir(dir string, stale bool) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		switch {
		case stale && strings.HasSuffix(de.Name(), entryExt):
			n++
		case !stale && strings.HasPrefix(de.Name(), tmpPrefix):
			if os.Remove(path) == nil {
				n++
			}
		}
		return nil
	})
	if err != nil {
		return n, err
	}
	if stale {
		err = os.RemoveAll(dir)
	}
	return n, err
}

// removeTree deletes a directory tree, returning how many files it held.
func removeTree(dir string) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err == nil && !de.IsDir() {
			n++
		}
		return err
	})
	if err != nil && !os.IsNotExist(err) {
		return n, err
	}
	return n, os.RemoveAll(dir)
}
