package memostore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// entryFile returns the single entry file a one-Put store holds.
func entryFile(t *testing.T, d *Disk) string {
	t.Helper()
	var path string
	n := 0
	if err := d.Walk(func(info EntryInfo) error { path = info.Path; n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("store holds %d entries, want 1", n)
	}
	return path
}

// TestParsedPayloadIsACopy pins that an entry's payload does not alias the
// file's read buffer: the memory tier keeps the Runner's decoded payload
// for as long as the entry lives, and a view would pin the whole file.
func TestParsedPayloadIsACopy(t *testing.T) {
	raw := frameEntry(Key{Version: "v", Device: "d", Workload: "w"}, []byte(`{"payload":true}`))
	parsed, err := parseEntry(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(parsed.payload) != `{"payload":true}` {
		t.Fatalf("parsed payload %q", parsed.payload)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(raw)))
	if p := uintptr(unsafe.Pointer(unsafe.SliceData(parsed.payload))); p >= lo && p < lo+uintptr(cap(raw)) {
		t.Error("the parsed payload is a view of the file's bytes, not a copy")
	}
}

// TestPutRefusesUnframableKey: a coordinate holding the separator byte
// would parse back as a different key, so Put counts it as a failed
// persist instead of writing an entry every read would quarantine.
func TestPutRefusesUnframableKey(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), testCodec())
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	d.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	for _, k := range []Key{
		{Version: "v\x1f", Device: "d", Workload: "w"},
		{Version: "v", Device: "d\x1fw", Workload: ""},
		{Version: "v", Device: "d", Workload: "w\x1f"},
	} {
		d.Put(k, "v")
		if _, _, ok := d.Get(k); ok {
			t.Errorf("key %q served a value", k)
		}
	}
	s := d.Stats()
	if s.DiskWriteErrors != 3 || s.DiskWrites != 0 || s.DiskCorrupt != 0 {
		t.Fatalf("stats = %+v, want 3 write errors, no writes, nothing quarantined", s)
	}
	if len(logged) != 3 {
		t.Fatalf("logged %q, want one line per refused key", logged)
	}
	n := 0
	if err := d.Walk(func(EntryInfo) error { n++; return nil }); err != nil || n != 0 {
		t.Fatalf("store holds %d entries (walk err %v), want none", n, err)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), testCodec())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(7)
	d.Put(k, "payload")
	v, tier, ok := d.Get(k)
	if !ok || tier != TierDisk || v != "payload" {
		t.Fatalf("Get = (%v, %v, %v), want (payload, disk, true)", v, tier, ok)
	}
	s := d.Stats()
	if s.DiskWrites != 1 || s.DiskHits != 1 || s.DiskCorrupt != 0 || s.DiskWriteErrors != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// Distinct keys never alias.
	if _, _, ok := d.Get(testKey(8)); ok {
		t.Fatal("distinct key served a stored value")
	}
	// A different version namespace is a clean miss — the versioning
	// contract's read half.
	stale := k
	stale.Version = "riscvmem/vOLD"
	if _, _, ok := d.Get(stale); ok {
		t.Fatal("version-mismatched key served a stored value")
	}
}

// corruption classes: each must be quarantined and served as a miss, never
// an error, and the original path must be gone afterwards so the next
// lookup is an ordinary cold miss.
func TestDiskCorruptionQuarantined(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			rewrite(t, path, func(raw []byte) []byte { return raw[:len(raw)/2] })
		}},
		{"payload-truncated", func(t *testing.T, path string) {
			rewrite(t, path, func(raw []byte) []byte { return raw[:len(raw)-1] })
		}},
		{"header-only", func(t *testing.T, path string) {
			rewrite(t, path, func(raw []byte) []byte { return raw[:entryHeaderLen] })
		}},
		{"bit-flipped", func(t *testing.T, path string) {
			rewrite(t, path, func(raw []byte) []byte {
				// The last byte is the payload's closing quote.
				raw[len(raw)-1] ^= 0x01
				return raw
			})
		}},
		{"sum-bit-flipped", func(t *testing.T, path string) {
			rewrite(t, path, func(raw []byte) []byte {
				// Another hex digit: the header still parses, and only the
				// checksum comparison catches it.
				if i := len(entryPrefix); raw[i] == '0' {
					raw[i] = '1'
				} else {
					raw[i] = '0'
				}
				return raw
			})
		}},
		{"empty", func(t *testing.T, path string) {
			rewrite(t, path, func([]byte) []byte { return nil })
		}},
		{"wrong-magic", func(t *testing.T, path string) {
			rewrite(t, path, func(raw []byte) []byte {
				return bytes.Replace(raw, []byte(entryMagic), []byte("not-a-memo-at-a"), 1)
			})
		}},
		{"mislabeled-key", func(t *testing.T, path string) {
			// A validly-checksummed entry for a *different* key copied to
			// this address: the key cross-check must reject it.
			rewrite(t, path, func(raw []byte) []byte {
				k := testKey(1)
				k.Device = "devB"
				return frameEntry(k, []byte(`"good"`))
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := OpenDisk(t.TempDir(), testCodec())
			if err != nil {
				t.Fatal(err)
			}
			k := testKey(1)
			d.Put(k, "good")
			path := entryFile(t, d)
			tc.corrupt(t, path)

			if v, tier, ok := d.Get(k); ok {
				t.Fatalf("corrupt entry served: (%v, %v)", v, tier)
			}
			s := d.Stats()
			if s.DiskCorrupt != 1 {
				t.Fatalf("DiskCorrupt = %d, want 1", s.DiskCorrupt)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("corrupt entry still at %s", path)
			}
			qpath := filepath.Join(d.dir, quarantineDir, filepath.Base(path))
			if _, err := os.Stat(qpath); err != nil {
				t.Fatalf("quarantined copy missing: %v", err)
			}
			// The next lookup is an ordinary miss, and a fresh Put fully
			// restores the entry.
			if _, _, ok := d.Get(k); ok {
				t.Fatal("quarantined entry still served")
			}
			d.Put(k, "good")
			if v, _, ok := d.Get(k); !ok || v != "good" {
				t.Fatal("re-put after quarantine did not restore the entry")
			}
		})
	}
}

// TestDiskUndecodablePayloadQuarantined covers the codec-level failure: a
// structurally intact entry whose payload the current codec rejects.
func TestDiskUndecodablePayloadQuarantined(t *testing.T) {
	codec := testCodec()
	d, err := OpenDisk(t.TempDir(), codec)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	// Hand-write an entry whose payload is valid JSON but not a string —
	// checksummed correctly, so only Decode fails.
	if err := d.writeFile(k, frameEntry(k, []byte(`{"not":"a string"}`))); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d.Get(k); ok {
		t.Fatal("undecodable payload served")
	}
	if s := d.Stats(); s.DiskCorrupt != 1 {
		t.Fatalf("DiskCorrupt = %d, want 1", s.DiskCorrupt)
	}
}

// TestDiskPersistFailureIsSoft pins the write-path contract without a fault
// seam: an Encode failure (the first step of a persist) is counted, and the
// store keeps serving everything else.
func TestDiskPersistFailureIsSoft(t *testing.T) {
	codec := testCodec()
	codec.Encode = func(any) ([]byte, error) { return nil, errors.New("injected encode failure") }
	d, err := OpenDisk(t.TempDir(), codec)
	if err != nil {
		t.Fatal(err)
	}
	d.Put(testKey(1), "v") // must not panic or error
	s := d.Stats()
	if s.DiskWriteErrors != 1 || s.DiskWrites != 0 {
		t.Fatalf("stats = %+v, want 1 write error and 0 writes", s)
	}
}

// TestDiskCrashLeavesOnlyTempFile simulates the observable half of a crash
// mid-write: a stray temp file in the entry directory. It must be invisible
// to Get and Walk, and GC must remove it.
func TestDiskCrashLeavesOnlyTempFile(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), testCodec())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	d.Put(k, "v")
	dir := filepath.Dir(entryFile(t, d))
	stray := filepath.Join(dir, tmpPrefix+"123456")
	if err := os.WriteFile(stray, []byte(`{"partial":`), 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := d.Walk(func(EntryInfo) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Walk saw %d entries, want 1 (temp file leaked in)", n)
	}
	gc, err := d.GC("")
	if err != nil {
		t.Fatal(err)
	}
	if gc.TempFiles != 1 {
		t.Fatalf("GC removed %d temp files, want 1", gc.TempFiles)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stray temp file survived GC")
	}
	if v, _, ok := d.Get(k); !ok || v != "v" {
		t.Fatal("real entry damaged by GC")
	}
}

// TestDiskConcurrentReadersAndWriters hammers one store from many
// goroutines; correctness is "no error, no torn value" (run with -race).
func TestDiskConcurrentReadersAndWriters(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), testCodec())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				k := testKey(i % 10)
				d.Put(k, "stable-value")
				if v, _, ok := d.Get(k); ok && v != "stable-value" {
					t.Errorf("torn read: %v", v)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if s := d.Stats(); s.DiskCorrupt != 0 || s.DiskWriteErrors != 0 {
		t.Fatalf("concurrent use corrupted the store: %+v", s)
	}
}

func TestOpenDiskErrors(t *testing.T) {
	if _, err := OpenDisk("", testCodec()); err == nil {
		t.Fatal("empty dir accepted")
	}
	// A file where the directory should be.
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(f, testCodec()); err == nil {
		t.Fatal("file path accepted as cache dir")
	}
}

// rewrite replaces the file at path with edit's result on its bytes.
func rewrite(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}
