package run

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
