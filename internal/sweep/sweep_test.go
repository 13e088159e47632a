package sweep

import (
	"context"
	"strings"
	"testing"

	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/machine"
	"riscvmem/internal/run"
	"riscvmem/internal/units"
)

func TestParseAxis(t *testing.T) {
	ax := MustParseAxis("maxinflight=1,2, 4 ,base")
	if ax.Name != "maxinflight" || len(ax.Points) != 4 {
		t.Fatalf("axis = %+v", ax)
	}
	if ax.Points[3].Apply != nil || ax.Points[3].Label != "base" {
		t.Error("base value did not compile to the identity point")
	}
	spec := ax.Points[2].Apply(machine.MangoPiD1())
	if spec.Mem.MaxInflight != 4 {
		t.Errorf("maxinflight point applied %d", spec.Mem.MaxInflight)
	}

	l2 := MustParseAxis("l2=off,128KiB,1MiB")
	if got := l2.Points[0].Apply(machine.VisionFive()); got.Mem.L2 != nil {
		t.Error("l2=off left the L2 in place")
	}
	if got := l2.Points[2].Apply(machine.MangoPiD1()); got.Mem.L2 == nil ||
		got.Mem.L2.Cache.Size != units.MiB {
		t.Error("l2=1MiB did not install a 1 MiB L2")
	}

	for _, bad := range []string{
		"", "maxinflight", "maxinflight=", "bogus=1", "maxinflight=zero",
		"maxinflight=0", "l2=tiny", "policy=MRU", "preframp=maybe",
		"missoverlap=-1", "maxinflight=2,2", "pref=on",
	} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q) succeeded", bad)
		}
	}
	// Every documented axis name parses.
	for _, s := range []string{
		"l2=off", "maxinflight=4", "l1ways=8", "channels=2", "dramlat=80",
		"missoverlap=0.5", "prefdist=16", "preframp=off", "pref=off", "policy=FIFO",
	} {
		if _, err := ParseAxis(s); err != nil {
			t.Errorf("ParseAxis(%q): %v", s, err)
		}
	}
	if len(AxisNames()) != len(axisParsers) {
		t.Error("AxisNames out of sync")
	}
}

func TestExpand(t *testing.T) {
	base := machine.MangoPiD1()
	cells, err := Expand(base, []Axis{
		MustParseAxis("maxinflight=base,4"),
		MustParseAxis("l2=base,128KiB"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("%d cells, want 4", len(cells))
	}
	// First axis outermost; the all-base cell is untouched.
	if !cells[0].Base || cells[0].Spec.Name != "MangoPi" {
		t.Errorf("cell 0 = %+v", cells[0])
	}
	if cells[0].Spec.Identity() != base.Identity() {
		t.Error("base cell's spec diverged from the preset")
	}
	wantNames := []string{
		"MangoPi",
		"MangoPi[l2=128KiB]",
		"MangoPi[maxinflight=4]",
		"MangoPi[maxinflight=4,l2=128KiB]",
	}
	for i, want := range wantNames {
		if cells[i].Spec.Name != want {
			t.Errorf("cell %d name = %q, want %q", i, cells[i].Spec.Name, want)
		}
		if len(cells[i].Labels) != 2 {
			t.Errorf("cell %d labels = %v", i, cells[i].Labels)
		}
		if err := cells[i].Spec.Validate(); err != nil {
			t.Errorf("cell %d: %v", i, err)
		}
	}
	// All four identities are distinct — no pooled-machine or cached-result
	// sharing between cells.
	ids := map[string]int{}
	for i, c := range cells {
		if j, dup := ids[c.Spec.Identity()]; dup {
			t.Errorf("cells %d and %d share an identity", j, i)
		}
		ids[c.Spec.Identity()] = i
	}
	// The combined cell carries both mutations.
	last := cells[3].Spec
	if last.Mem.MaxInflight != 4 || last.Mem.L2 == nil || last.Mem.L2.Cache.Size != 128*units.KiB {
		t.Errorf("combined cell spec = %+v", last.Mem)
	}
	// And the base preset was never mutated in place.
	if base.Mem.L2 != nil || base.Mem.MaxInflight != 8 {
		t.Error("Expand mutated the base preset")
	}
}

func TestExpandRejectsPrefetchAxesWithoutPrefetcher(t *testing.T) {
	custom := machine.MangoPiD1().WithoutPrefetcher()
	_, err := Expand(custom, []Axis{MustParseAxis("prefdist=2,8")})
	if err == nil || !strings.Contains(err.Error(), "has no prefetcher") {
		t.Errorf("prefdist axis on a device without a prefetcher: err = %v", err)
	}
	if _, err := Expand(custom, []Axis{MustParseAxis("maxinflight=2,8")}); err != nil {
		t.Errorf("unrelated axis rejected: %v", err)
	}
	// Programmatically built axes get the same protection by setting
	// MutatesPrefetcher (exported for exactly this reason).
	prog := Axis{Name: "mydist", MutatesPrefetcher: true, Points: []Point{
		{Label: "2", Apply: func(s machine.Spec) machine.Spec { return s.WithPrefetchDistance(2) }},
	}}
	if _, err := Expand(custom, []Axis{prog}); err == nil {
		t.Error("programmatic prefetch axis accepted on a device without a prefetcher")
	}
	if _, err := Expand(machine.MangoPiD1(), []Axis{{Name: "empty"}}); err == nil {
		t.Error("empty axis accepted")
	}
}

// TestExpandRejectsDuplicateAxes: a repeated -axis flag must not let the
// later declaration silently override the earlier one while the row labels
// claim both applied.
func TestExpandRejectsDuplicateAxes(t *testing.T) {
	_, err := Expand(machine.MangoPiD1(), []Axis{
		MustParseAxis("l2=off"),
		MustParseAxis("l2=1MiB"),
	})
	if err == nil || !strings.Contains(err.Error(), "declared twice") {
		t.Errorf("duplicate axis error = %v", err)
	}
}

// TestExpandRejectsPrefOffCrossedWithPrefetchAxes: crossing pref=off with a
// prefetcher-mutating axis would produce cells whose prefdist/preframp label
// took no effect (the prefetcher is gone), silently duplicating results
// under different labels — in either axis order.
func TestExpandRejectsPrefOffCrossedWithPrefetchAxes(t *testing.T) {
	_, err := Expand(machine.MangoPiD1(), []Axis{
		MustParseAxis("pref=base,off"),
		MustParseAxis("prefdist=2,32"),
	})
	if err == nil || !strings.Contains(err.Error(), "disabled the prefetcher") {
		t.Errorf("pref=off before prefdist: err = %v", err)
	}
	_, err = Expand(machine.MangoPiD1(), []Axis{
		MustParseAxis("prefdist=2,32"),
		MustParseAxis("pref=base,off"),
	})
	if err == nil || !strings.Contains(err.Error(), "disabled the prefetcher") {
		t.Errorf("prefdist before pref=off: err = %v", err)
	}
	// The base-only combination stays legal: no mutating prefetch point
	// ever lands on a prefetcher-less spec.
	if _, err := Expand(machine.MangoPiD1(), []Axis{
		MustParseAxis("pref=base,off"),
		MustParseAxis("preframp=base"),
	}); err != nil {
		t.Errorf("all-base prefetch axis rejected: %v", err)
	}
}

func TestRunComputesBaseRelativeDeltas(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Base:      machine.MangoPiD1(),
		Axes:      []Axis{MustParseAxis("l2=base,1MiB")},
		Workloads: []run.Workload{run.Transpose(transpose.Config{N: 256, Variant: transpose.Naive})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCell) != 2 {
		t.Fatalf("%d rows, want 2", len(res.PerCell))
	}
	baseRow, l2Row := res.PerCell[0], res.PerCell[1]
	if !baseRow.Cell.Base || l2Row.Cell.Base {
		t.Fatalf("cell order: %+v", res.Cells)
	}
	if baseRow.Speedup != 1 || baseRow.BandwidthVsBase != 1 {
		t.Errorf("base cell deltas = %v, %v, want 1, 1", baseRow.Speedup, baseRow.BandwidthVsBase)
	}
	// The paper's core ablation: a naive transposition working set that
	// misses the D1's L1 must get faster when the device gains a 1 MiB L2.
	if l2Row.Speedup <= 1 {
		t.Errorf("adding an L2 to the D1 did not speed up naive transpose: speedup %v", l2Row.Speedup)
	}
	if l2Row.Result.Mem.L2Hits == 0 {
		t.Error("L2 cell shows no L2 activity")
	}
	if got := res.BaseResults[0]; got != baseRow.Result {
		t.Errorf("BaseResults mismatch: %+v", got)
	}
}

// TestRunDistinguishesSameNameWorkloads is the regression test for the
// base-delta lookup: two workloads sharing a Name (same kernel/variant,
// different config) must each be compared against their own base result,
// not whichever one a name-keyed lookup kept.
func TestRunDistinguishesSameNameWorkloads(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Base: machine.MangoPiD1(),
		Axes: []Axis{MustParseAxis("maxinflight=base,4")},
		Workloads: []run.Workload{
			run.Transpose(transpose.Config{N: 64, Variant: transpose.Naive}),
			run.Transpose(transpose.Config{N: 256, Variant: transpose.Naive}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range res.PerCell {
		if cr.Cell.Base && (cr.Speedup != 1 || cr.BandwidthVsBase != 1) {
			t.Errorf("base cell of %s (N from seconds %.3g) has deltas %v, %v — wrong base denominator",
				cr.Result.Workload, cr.Result.Seconds, cr.Speedup, cr.BandwidthVsBase)
		}
	}
	if res.BaseResults[0].Seconds >= res.BaseResults[1].Seconds {
		t.Error("positional base results collapsed: N=64 should be faster than N=256")
	}
}

func TestRunWithoutBasePointStillHasReference(t *testing.T) {
	// Neither axis value is "base": the reference cell is synthesized and
	// excluded from the grid, but deltas are still base-relative.
	res, err := Run(context.Background(), Config{
		Base:      machine.MangoPiD1(),
		Axes:      []Axis{MustParseAxis("maxinflight=1,2")},
		Workloads: []run.Workload{run.Transpose(transpose.Config{N: 128})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 || len(res.PerCell) != 2 {
		t.Fatalf("grid = %d cells, %d rows", len(res.Cells), len(res.PerCell))
	}
	for _, cr := range res.PerCell {
		if cr.Cell.Base {
			t.Error("synthetic reference cell leaked into the grid")
		}
		if cr.Speedup <= 0 {
			t.Errorf("cell %v: speedup %v", cr.Cell.Labels, cr.Speedup)
		}
	}
	if len(res.BaseResults) != 1 || res.BaseResults[0].Seconds <= 0 {
		t.Error("missing base reference results")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(context.Background(), Config{Base: machine.MangoPiD1()}); err == nil {
		t.Error("sweep with no workloads accepted")
	}
	// An invalid mutated spec (l1ways that break the set count) surfaces as
	// a per-cell error, identified by the cell's name.
	_, err := Run(context.Background(), Config{
		Base:      machine.XeonServer(),
		Axes:      []Axis{MustParseAxis("l1ways=5")},
		Workloads: []run.Workload{run.Transpose(transpose.Config{N: 64})},
	})
	if err == nil || !strings.Contains(err.Error(), "Xeon[l1ways=5]") {
		t.Errorf("invalid cell error = %v", err)
	}
}

func TestTable(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Base: machine.MangoPiD1(),
		Axes: []Axis{
			MustParseAxis("maxinflight=base,2"),
			MustParseAxis("pref=base,off"),
		},
		Workloads: []run.Workload{run.Transpose(transpose.Config{N: 128})},
	})
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Table()
	wantHeaders := []string{"maxinflight", "pref", "Workload", "Seconds", "Speedup", "Bandwidth", "BW×base"}
	if len(tb.Headers) != len(wantHeaders) {
		t.Fatalf("headers = %v", tb.Headers)
	}
	for i, h := range wantHeaders {
		if tb.Headers[i] != h {
			t.Errorf("header %d = %q, want %q", i, tb.Headers[i], h)
		}
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(tb.Rows))
	}
	if tb.Rows[0][0] != "base" || tb.Rows[3][1] != "off" {
		t.Errorf("axis columns wrong: %v", tb.Rows)
	}
	out := tb.String() // must render without panicking, aligned
	if !strings.Contains(out, "Sweep: MangoPi") {
		t.Errorf("title missing in:\n%s", out)
	}
}
