package run

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"riscvmem/internal/kernels/stream"
	"riscvmem/internal/machine"
	"riscvmem/internal/memostore"
)

// openTestStore builds a tiered store over dir, failing the test on error.
func openTestStore(t *testing.T, dir string) *memostore.Tiered {
	t.Helper()
	store, err := OpenStore(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// memoFiles lists every persisted entry under dir (quarantine and temp
// files excluded), so corruption tests can damage them in place.
func memoFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "quarantine" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".memo") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestPersistDiskWarmOracle is the acceptance test for the persistent tier:
// a cold run persists the full kernel×device cross-product, and a fresh
// Runner in a "restarted process" (new store, same directory, empty memory
// tier) serves the whole batch from disk with zero new simulations and
// bit-identical Results.
func TestPersistDiskWarmOracle(t *testing.T) {
	jobs := crossProduct()
	dir := t.TempDir()

	cold, err := New(Options{Parallelism: 4, Store: openTestStore(t, dir)}).
		Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(memoFiles(t, dir)); got != len(jobs) {
		t.Fatalf("cold run persisted %d entries, want %d (every cell is persistable)", got, len(jobs))
	}

	warmRunner := New(Options{Parallelism: 4, Store: openTestStore(t, dir)})
	warm, err := warmRunner.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := warmRunner.CacheStats()
	if misses != 0 {
		t.Errorf("restarted runner simulated %d cells, want 0 (all on disk)", misses)
	}
	if hits != uint64(len(jobs)) {
		t.Errorf("restarted runner hits = %d, want %d", hits, len(jobs))
	}
	ts := warmRunner.TierStats()
	if ts.DiskHits != uint64(len(jobs)) {
		t.Errorf("disk hits = %d, want %d (every cell served from the disk tier)", ts.DiskHits, len(jobs))
	}
	if ts.DiskCorrupt != 0 || ts.DiskWriteErrors != 0 {
		t.Errorf("clean warm run reported corruption/write errors: %+v", ts)
	}
	for i := range cold {
		if warm[i] != cold[i] {
			t.Errorf("job %d: disk-warm result diverges from cold:\n got %+v\nwant %+v", i, warm[i], cold[i])
		}
	}

	// A second pass on the same runner must come from the promoted memory
	// tier — the disk is not re-read for hot keys.
	if _, err := warmRunner.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if again := warmRunner.TierStats(); again.DiskHits != ts.DiskHits {
		t.Errorf("second warm pass re-read the disk tier: disk hits %d -> %d", ts.DiskHits, again.DiskHits)
	}
}

// TestPersistCorruptionRecovery damages half the persisted entries —
// alternating truncation and bit-flips — and pins that a restarted Runner
// still returns results bit-identical to the cold run: damaged entries are
// quarantined, counted, and transparently re-simulated.
func TestPersistCorruptionRecovery(t *testing.T) {
	jobs := crossProduct()[:16] // one device's worth is plenty here
	dir := t.TempDir()

	cold, err := New(Options{Parallelism: 4, Store: openTestStore(t, dir)}).
		Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	files := memoFiles(t, dir)
	if len(files) != len(jobs) {
		t.Fatalf("persisted %d entries, want %d", len(files), len(jobs))
	}
	damaged := 0
	for i, path := range files {
		if i%2 != 0 {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case damaged%2 == 0 && len(data) > 4: // truncate mid-entry
			data = data[:len(data)/2]
		default: // flip a bit inside the payload
			data[len(data)/2] ^= 0x40
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}

	warmRunner := New(Options{Parallelism: 4, Store: openTestStore(t, dir)})
	warm, err := warmRunner.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if warm[i] != cold[i] {
			t.Errorf("job %d: post-corruption result diverges from cold:\n got %+v\nwant %+v", i, warm[i], cold[i])
		}
	}
	_, misses := warmRunner.CacheStats()
	if misses != uint64(damaged) {
		t.Errorf("re-simulated %d cells, want exactly the %d damaged ones", misses, damaged)
	}
	ts := warmRunner.TierStats()
	if ts.DiskCorrupt != uint64(damaged) {
		t.Errorf("disk corrupt count = %d, want %d", ts.DiskCorrupt, damaged)
	}
	if ts.DiskHits != uint64(len(jobs)-damaged) {
		t.Errorf("disk hits = %d, want %d (the undamaged entries)", ts.DiskHits, len(jobs)-damaged)
	}
	// Re-simulation re-persisted the damaged cells: a third process sees a
	// fully healed store.
	healed := New(Options{Parallelism: 4, Store: openTestStore(t, dir)})
	if _, err := healed.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if _, m := healed.CacheStats(); m != 0 {
		t.Errorf("healed store still re-simulated %d cells", m)
	}
}

// readEntryFile returns a memo entry file's key and its payload as stored.
func readEntryFile(t *testing.T, path string) (memostore.Key, []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Version, Device, Workload string
		Result                    json.RawMessage
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	return memostore.Key{Version: env.Version, Device: env.Device, Workload: env.Workload}, env.Result
}

// checkServedPayload reads the entry at path through a fresh store over dir
// and requires the served row's bytes to be the file's payload and
// json.Marshal of the served Result.
func checkServedPayload(t *testing.T, dir, path string) []byte {
	t.Helper()
	key, payload := readEntryFile(t, path)
	v, tier, ok := openTestStore(t, dir).Get(key)
	if !ok || tier != memostore.TierDisk {
		t.Fatalf("fresh store: Get = ok %v from tier %v, want a disk hit", ok, tier)
	}
	row, isRow := v.(*memoRow)
	if !isRow {
		t.Fatalf("fresh store served %T, want *memoRow", v)
	}
	if !bytes.Equal(row.json, payload) {
		t.Errorf("served bytes differ from the file's payload:\n got %s\nwant %s", row.json, payload)
	}
	if want, err := json.Marshal(row.res); err != nil || !bytes.Equal(row.json, want) {
		t.Errorf("served bytes are not json.Marshal of the served Result (%v):\n got %s\nwant %s", err, row.json, want)
	}
	return payload
}

// TestMemoPayloadIsTheRow pins that a memoized result is encoded once: the
// JSON the runner publishes is the disk tier's payload, and a fresh store
// (a restarted process) serves those exact bytes — to the runner's
// Progress.JSON too. An entry written by the codec that still encoded at
// Put time (testdata/memo-k2) is served with its bytes unchanged, which is
// why the payload change needs no CacheVersion bump.
func TestMemoPayloadIsTheRow(t *testing.T) {
	dev, err := machine.ByName("MangoPi")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{Device: dev, Workload: Stream(stream.Config{Test: stream.Triad, Elems: 1024, Reps: 1})}}
	runJSON := func(r *Runner) (Result, []byte) {
		t.Helper()
		var js []byte
		res, errs := r.RunAllWithProgress(context.Background(), jobs, func(p Progress) { js = p.JSON })
		if err := JoinErrors(errs); err != nil {
			t.Fatal(err)
		}
		return res[0], js
	}

	dir := t.TempDir()
	res, published := runJSON(New(Options{Store: openTestStore(t, dir)}))
	if want, err := json.Marshal(res); err != nil || !bytes.Equal(published, want) {
		t.Fatalf("published JSON %s, want json.Marshal of the result %s (%v)", published, want, err)
	}
	files := memoFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("persisted %d entries, want 1", len(files))
	}
	if payload := checkServedPayload(t, dir, files[0]); !bytes.Equal(payload, published) {
		t.Errorf("disk payload %s, want the published JSON %s", payload, published)
	}
	if _, js := runJSON(New(Options{Store: openTestStore(t, dir)})); !bytes.Equal(js, published) {
		t.Errorf("a restarted runner reports JSON %s, want %s", js, published)
	}

	legacy := t.TempDir()
	if err := os.CopyFS(legacy, os.DirFS(filepath.Join("testdata", "memo-k2"))); err != nil {
		t.Fatal(err)
	}
	files = memoFiles(t, legacy)
	if len(files) != 1 {
		t.Fatalf("testdata/memo-k2 holds %d entries, want 1", len(files))
	}
	checkServedPayload(t, legacy, files[0])
}
