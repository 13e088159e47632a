package core

import (
	"testing"

	"riscvmem/internal/kernels/blur"
	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/machine"
)

// fastOpts keeps suite tests quick: the two RISC-V boards (small caches →
// small DRAM-level working sets) at a high scale.
func fastOpts() Options {
	return Options{
		Scale:   32,
		Devices: []machine.Spec{machine.VisionFive(), machine.MangoPiD1()},
		Reps:    1,
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 8 || len(o.Devices) != 4 || o.Reps != 2 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestMatrixSizes(t *testing.T) {
	s := NewSuite(Options{Scale: 8})
	sz := s.matrixSizes()
	if sz[0] != 1024 || sz[1] != 2048 {
		t.Fatalf("scale-8 sizes = %v", sz)
	}
	s = NewSuite(Options{Scale: 1000}) // degenerate: clamped to 64
	sz = s.matrixSizes()
	if sz[0] != 64 || sz[1] != 64 {
		t.Fatalf("clamped sizes = %v", sz)
	}
}

func TestDRAMBandwidthCachedAndPositive(t *testing.T) {
	s := NewSuite(fastOpts())
	spec := machine.MangoPiD1()
	a, err := s.DRAMBandwidth(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a <= 0 {
		t.Fatal("non-positive bandwidth")
	}
	b, err := s.DRAMBandwidth(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache returned a different value")
	}
}

func TestFig1Shape(t *testing.T) {
	s := NewSuite(fastOpts())
	cells, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	// VisionFive: 3 levels × 4 tests; MangoPi: 2 levels × 4 tests.
	if len(cells) != 3*4+2*4 {
		t.Fatalf("cells = %d", len(cells))
	}
	// Per device: L1 COPY must beat DRAM COPY.
	byKey := map[string]float64{}
	for _, c := range cells {
		if c.Test.String() == "COPY" {
			byKey[c.Device+"/"+c.Level] = c.BW.GBps()
		}
	}
	for _, dev := range []string{"VisionFive", "MangoPi"} {
		if byKey[dev+"/L1"] <= byKey[dev+"/DRAM"] {
			t.Errorf("%s: L1 %.2f not above DRAM %.2f", dev, byKey[dev+"/L1"], byKey[dev+"/DRAM"])
		}
	}
	// MangoPi must have no L2 row.
	for _, c := range cells {
		if c.Device == "MangoPi" && c.Level == "L2" {
			t.Error("MangoPi reported an L2 level")
		}
	}
}

func TestFig2ShapeAndCapacitySkip(t *testing.T) {
	s := NewSuite(fastOpts())
	rows, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	// 2 devices × 2 sizes × 5 variants.
	if len(rows) != 2*2*5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Device == "MangoPi" && r.PaperN == PaperMatrixLarge {
			if !r.Skipped {
				t.Errorf("MangoPi 16384² row not skipped: %+v", r)
			}
			continue
		}
		if r.Skipped {
			t.Errorf("unexpected skip: %+v", r)
		}
		if r.Variant == transpose.Naive && r.Speedup != 1 {
			t.Errorf("naive speedup = %v", r.Speedup)
		}
		if r.Seconds <= 0 {
			t.Errorf("row without time: %+v", r)
		}
	}
	// Blocking must beat naive on both devices at the larger (surviving)
	// size for VisionFive.
	best := map[string]float64{}
	naive := map[string]float64{}
	for _, r := range rows {
		if r.Skipped || r.PaperN != PaperMatrixSmall {
			continue
		}
		if r.Variant == transpose.Naive {
			naive[r.Device] = r.Seconds
		}
		if r.Variant == transpose.ManualBlocking {
			best[r.Device] = r.Seconds
		}
	}
	for dev, nv := range naive {
		if best[dev] >= nv {
			t.Errorf("%s: Manual_blocking (%v) not faster than Naive (%v)", dev, best[dev], nv)
		}
	}
}

func TestFig3Utilizations(t *testing.T) {
	s := NewSuite(fastOpts())
	rows, err := s.Fig3(nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, r := range rows {
		if r.Skipped {
			continue
		}
		seen++
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Errorf("utilization out of range: %+v", r)
		}
	}
	if seen == 0 {
		t.Fatal("no utilization rows")
	}
}

func TestFig6And7(t *testing.T) {
	s := NewSuite(fastOpts())
	f6, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(f6) != 2*5 {
		t.Fatalf("fig6 rows = %d", len(f6))
	}
	for _, r := range f6 {
		if r.Seconds <= 0 {
			t.Errorf("no time: %+v", r)
		}
	}
	// 1D_kernels must beat Naive on both devices (O(F) vs O(F²)).
	sec := map[string]map[blur.Variant]float64{}
	for _, r := range f6 {
		if sec[r.Device] == nil {
			sec[r.Device] = map[blur.Variant]float64{}
		}
		sec[r.Device][r.Variant] = r.Seconds
	}
	for dev, m := range sec {
		if m[blur.OneD] >= m[blur.Naive] {
			t.Errorf("%s: 1D_kernels not faster than Naive", dev)
		}
	}

	f7, err := s.Fig7(f6)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7) != 2*3 {
		t.Fatalf("fig7 rows = %d", len(f7))
	}
	for _, r := range f7 {
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Errorf("utilization out of range: %+v", r)
		}
		if r.Variant == blur.OneD && (r.ImprovementOver1D < 0.999 || r.ImprovementOver1D > 1.001) {
			t.Errorf("1D improvement over itself = %v", r.ImprovementOver1D)
		}
	}
}

func TestFig3ReusesFig2Rows(t *testing.T) {
	s := NewSuite(fastOpts())
	f2, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Fig3(f2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Fig3(f2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatal("row counts differ")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

// TestSuiteRepeatedCellsHitCache pins the suite's memoization rebase:
// re-running a figure on the same Suite, and deriving Fig3 from a fresh
// Fig2 pass, perform zero new simulations — the runner's result cache
// serves every repeated cell.
func TestSuiteRepeatedCellsHitCache(t *testing.T) {
	s := NewSuite(Options{Scale: 64, Devices: []machine.Spec{machine.MangoPiD1(), machine.VisionFive()}})
	first, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	_, coldMisses := s.runner.CacheStats()
	if coldMisses == 0 {
		t.Fatal("cold Fig2 simulated nothing")
	}
	again, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := s.runner.CacheStats(); misses != coldMisses {
		t.Errorf("Fig2 re-run simulated %d new cells, want 0", misses-coldMisses)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Errorf("row %d: cached Fig2 replay diverged: %+v != %+v", i, again[i], first[i])
		}
	}
	// Fig3(nil) re-derives Fig2 internally: transposition cells replay from
	// the cache; only the STREAM cells DRAMBandwidth needs simulate anew.
	if _, err := s.Fig3(nil); err != nil {
		t.Fatal(err)
	}
	_, withStream := s.runner.CacheStats()
	streamCells := uint64(2 * 4) // 2 devices × 4 STREAM tests at the DRAM level
	if withStream != coldMisses+streamCells {
		t.Errorf("Fig3(nil) simulated %d new cells, want %d", withStream-coldMisses, streamCells)
	}
	// A second full derivation is entirely free: the Fig2 cells and the
	// STREAM cells all replay from the cache (DRAMBandwidth additionally
	// short-circuits through its own per-device map).
	if _, err := s.Fig3(nil); err != nil {
		t.Fatal(err)
	}
	if _, final := s.runner.CacheStats(); final != coldMisses+streamCells {
		t.Errorf("repeated Fig3(nil) simulated %d new cells, want 0", final-coldMisses-streamCells)
	}
}
