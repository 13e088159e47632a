package memostore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExportImportRoundTrip(t *testing.T) {
	src, err := OpenDisk(t.TempDir(), testCodec())
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		src.Put(testKey(i), fmt.Sprintf("value-%d", i))
	}
	var snap bytes.Buffer
	es, err := src.Export(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if es.Entries != n || es.Skipped != 0 {
		t.Fatalf("export stats = %+v, want %d entries", es, n)
	}

	dst, err := OpenDisk(t.TempDir(), testCodec())
	if err != nil {
		t.Fatal(err)
	}
	dst.Put(testKey(0), "value-0") // pre-existing: must count as replaced
	is, err := dst.Import(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if is.Added != n-1 || is.Replaced != 1 || is.Invalid != 0 {
		t.Fatalf("import stats = %+v, want %d added / 1 replaced", is, n-1)
	}
	for i := 0; i < n; i++ {
		v, tier, ok := dst.Get(testKey(i))
		if !ok || tier != TierDisk || v != fmt.Sprintf("value-%d", i) {
			t.Fatalf("imported entry %d: (%v, %v, %v)", i, v, tier, ok)
		}
	}
}

// TestImportRejectsDamage pins that import validates end to end: corrupt
// snapshot lines are skipped and counted, valid ones still land.
func TestImportRejectsDamage(t *testing.T) {
	src, err := OpenDisk(t.TempDir(), testCodec())
	if err != nil {
		t.Fatal(err)
	}
	src.Put(testKey(1), "one")
	src.Put(testKey(2), "two")
	var snap bytes.Buffer
	if _, err := src.Export(&snap); err != nil {
		t.Fatal(err)
	}
	// Corrupt the first entry line (line 2): flip a payload character.
	lines := strings.SplitAfter(snap.String(), "\n")
	lines[1] = strings.Replace(lines[1], `"result":"`, `"result":"X`, 1)
	damaged := strings.Join(lines, "")

	dst, err := OpenDisk(t.TempDir(), testCodec())
	if err != nil {
		t.Fatal(err)
	}
	is, err := dst.Import(strings.NewReader(damaged))
	if err != nil {
		t.Fatal(err)
	}
	if is.Added != 1 || is.Invalid != 1 {
		t.Fatalf("import stats = %+v, want 1 added / 1 invalid", is)
	}
}

// TestImportSkipsUnframableKey: a correctly summed line whose coordinate
// holds the separator byte would be filed as a different key, so Import
// counts it invalid and writes nothing.
func TestImportSkipsUnframableKey(t *testing.T) {
	key := Key{Version: "riscvmem/vTEST", Device: "dev\x1fA", Workload: "w"}
	file := frameEntry(key, []byte(`"v"`))
	line, err := json.Marshal(snapshotLine{
		Magic: entryMagic, Format: lineFormat,
		Version: key.Version, Device: key.Device, Workload: key.Workload,
		Sum: string(file[len(entryPrefix) : entryHeaderLen-1]), Result: []byte(`"v"`),
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(t.TempDir(), testCodec())
	if err != nil {
		t.Fatal(err)
	}
	is, err := d.Import(strings.NewReader(`{"magic":"riscvmem-memo-snapshot","format":1}` + "\n" + string(line) + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if is.Invalid != 1 || is.Added != 0 {
		t.Fatalf("import stats = %+v, want 1 invalid", is)
	}
}

func TestImportRejectsBadHeader(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), testCodec())
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []string{"", "not json\n", `{"magic":"something-else","format":1}` + "\n"} {
		if _, err := d.Import(strings.NewReader(snap)); err == nil {
			t.Errorf("snapshot %q accepted", snap)
		}
	}
}

// TestExportSkipsCorruptEntries: a damaged entry must not poison a
// snapshot.
func TestExportSkipsCorruptEntries(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), testCodec())
	if err != nil {
		t.Fatal(err)
	}
	d.Put(testKey(1), "good")
	d.Put(testKey(2), "doomed")
	// Truncate one entry in place.
	var victim string
	if err := d.Walk(func(info EntryInfo) error {
		if info.Key.Workload == testKey(2).Workload {
			victim = info.Path
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	es, err := d.Export(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if es.Entries != 1 || es.Skipped != 1 {
		t.Fatalf("export stats = %+v, want 1 entry / 1 skipped", es)
	}
}

func TestWalkReportsDamageWithoutMutating(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), testCodec())
	if err != nil {
		t.Fatal(err)
	}
	d.Put(testKey(1), "v")
	path := entryFile(t, d)
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sawErr bool
	if err := d.Walk(func(info EntryInfo) error {
		if info.Err != nil {
			sawErr = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawErr {
		t.Fatal("Walk did not report the damaged entry")
	}
	// Walk is read-only: the file must still be in place (not quarantined).
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Walk moved the damaged entry: %v", err)
	}
}

// TestGCRemovesStaleVersions is the versioning contract's cleanup half:
// entries under any version namespace other than the kept one are removed
// wholesale, the kept namespace is untouched.
func TestGCRemovesStaleVersions(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), testCodec())
	if err != nil {
		t.Fatal(err)
	}
	current := testKey(1) // version "riscvmem/vTEST"
	stale := testKey(2)
	stale.Version = "riscvmem/vOLD"
	d.Put(current, "keep")
	d.Put(stale, "drop")
	// One quarantined entry too.
	d.Put(testKey(3), "doomed")
	var doomed string
	d.Walk(func(info EntryInfo) error {
		if info.Key.Workload == testKey(3).Workload {
			doomed = info.Path
		}
		return nil
	})
	raw, _ := os.ReadFile(doomed)
	os.WriteFile(doomed, raw[:5], 0o644)
	d.Get(testKey(3)) // trigger quarantine

	gc, err := d.GC(current.Version)
	if err != nil {
		t.Fatal(err)
	}
	if gc.StaleVersions != 1 || gc.StaleEntries != 1 || gc.Quarantined != 1 {
		t.Fatalf("gc stats = %+v, want 1 stale version / 1 stale entry / 1 quarantined", gc)
	}
	if v, _, ok := d.Get(current); !ok || v != "keep" {
		t.Fatal("GC damaged the kept version")
	}
	if _, _, ok := d.Get(stale); ok {
		t.Fatal("stale-version entry survived GC")
	}
}

// TestOldSnapshotsStillArrive imports a snapshot exported before entry
// files were framed (testdata/snapshot-k2.jsonl: the header, then a JSON
// entry line). The framed store serves the entry with its payload
// unchanged, the file's header carries the line's checksum — the framing
// kept the sum's definition — and a re-export is the snapshot, byte for
// byte.
func TestOldSnapshotsStillArrive(t *testing.T) {
	snap, err := os.ReadFile(filepath.Join("testdata", "snapshot-k2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var line snapshotLine
	if err := json.Unmarshal(bytes.SplitN(snap, []byte("\n"), 3)[1], &line); err != nil {
		t.Fatal(err)
	}
	raw := Codec{
		Encode: func(v any) ([]byte, error) { return v.([]byte), nil },
		Decode: func(data []byte) (any, error) { return data, nil },
	}
	d, err := OpenDisk(t.TempDir(), raw)
	if err != nil {
		t.Fatal(err)
	}
	is, err := d.Import(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if is.Added != 1 || is.Invalid != 0 {
		t.Fatalf("import stats = %+v, want 1 added", is)
	}
	key := Key{Version: line.Version, Device: line.Device, Workload: line.Workload}
	v, tier, ok := d.Get(key)
	if !ok || tier != TierDisk {
		t.Fatalf("Get = ok %v from tier %v, want a disk hit", ok, tier)
	}
	if !bytes.Equal(v.([]byte), line.Result) {
		t.Errorf("served payload\n got %s\nwant %s", v, line.Result)
	}
	file, err := os.ReadFile(d.entryPath(key))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(file[len(entryPrefix) : entryHeaderLen-1]); got != line.Sum {
		t.Errorf("entry header sum %s, want the line's %s", got, line.Sum)
	}
	var out bytes.Buffer
	if _, err := d.Export(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), snap) {
		t.Errorf("re-export differs from the imported snapshot:\n got %s\nwant %s", out.Bytes(), snap)
	}
}
