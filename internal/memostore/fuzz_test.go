package memostore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// frameBody frames arbitrary body bytes under a correct header.
func frameBody(body string) []byte {
	sum := sha256.Sum256([]byte(body))
	return []byte(entryPrefix + hex.EncodeToString(sum[:]) + "\n" + body)
}

// FuzzDiskEntryDecode feeds arbitrary bytes to the disk tier's entry
// decoder by planting them at a key's content address and reading the key
// back. Whatever the bytes, Get must not panic and must not error out of
// the cache contract: either the entry validates end to end (a disk hit),
// or it is quarantined — moved out of the live tree so the next lookup is
// an ordinary cold miss.
func FuzzDiskEntryDecode(f *testing.F) {
	key := testKey(1)
	valid := frameEntry(key, []byte(`"payload"`))
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:entryHeaderLen]) // the header alone
	// A correctly summed body with two separators: no payload follows the
	// workload coordinate.
	f.Add(frameBody(key.Version + "\x1f" + key.Device + "\x1f" + key.Workload))
	// Right shape, wrong checksum.
	wrong := bytes.Clone(valid)
	copy(wrong[len(entryPrefix):], "00")
	f.Add(wrong)
	// A valid entry for a different key planted at this key's address.
	f.Add(frameEntry(testKey(2), []byte(`"payload"`)))
	// A format-1 JSON envelope: the framing before this one, never read.
	// Its sum is the framed entry's: both cover the same bytes.
	f.Add([]byte(`{"magic":"riscvmem-memo","format":1,"version":"riscvmem/vTEST","device":"devA","workload":"w0001","sum":"` +
		string(valid[len(entryPrefix):entryHeaderLen-1]) + `","result":"payload"}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := OpenDisk(t.TempDir(), testCodec())
		if err != nil {
			t.Fatal(err)
		}
		path := d.entryPath(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		v, tier, ok := d.Get(key)
		stats := d.Stats()
		if ok {
			if tier != TierDisk {
				t.Fatalf("hit with tier %v, want %v", tier, TierDisk)
			}
			if _, isString := v.(string); !isString {
				t.Fatalf("codec returned %T through a validated entry", v)
			}
			if stats.DiskHits != 1 || stats.DiskCorrupt != 0 {
				t.Fatalf("hit stats = %+v", stats)
			}
			return
		}
		// Every miss on an existing file is a quarantine: the planted entry
		// must be gone so the next lookup is a clean cold miss, and the
		// bytes must be preserved under quarantine/ for post-mortem.
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("rejected entry still present at %s (stat err %v)", path, err)
		}
		if stats.DiskCorrupt != 1 || stats.DiskMisses != 1 {
			t.Fatalf("miss stats = %+v", stats)
		}
		qpath := filepath.Join(d.dir, quarantineDir, filepath.Base(path))
		if _, err := os.Stat(qpath); err != nil {
			t.Fatalf("quarantined bytes missing: %v", err)
		}
		if _, _, ok := d.Get(key); ok {
			t.Fatal("key hit after its entry was quarantined")
		}
	})
}
