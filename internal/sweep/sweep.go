// Package sweep runs declarative device-parameter ablations: named axes
// that mutate a base machine.Spec — L2 present/size, MSHR count, prefetcher
// distance/ramp, miss overlap, DRAM channels/latency, cache ways/policy —
// expanded into the full axis cross-product and executed as one batch on the
// memoized run.Runner.
//
// The paper's most interesting claims are ablation-shaped: the Mango Pi's
// missing L2, the VisionFive's ramping prefetcher crowding out demand
// traffic on a starved channel (Fig. 6), MSHR-bounded streaming bandwidth.
// This package turns each of those "what if?" questions into one declaration:
//
//	res, err := sweep.Run(ctx, sweep.Config{
//	    Base: machine.MangoPiD1(),
//	    Axes: []sweep.Axis{
//	        sweep.MustParseAxis("l2=base,128KiB,1MiB"),
//	        sweep.MustParseAxis("maxinflight=1,8,16"),
//	    },
//	    Workloads: []run.Workload{run.Transpose(transpose.Config{N: 512})},
//	})
//
// Every cell reports its speedup and bandwidth ratio against the base cell
// (the unmutated preset) running the same workload. A cell whose axis points
// are all "base" leaves the Spec untouched — byte-for-byte the preset — so
// its results are bit-identical to a direct run of the preset (pinned by the
// package's oracle test), and the memoized Runner makes overlapping sweeps
// and re-runs nearly free: identical cells simulate exactly once.
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//simlint:deterministic
package sweep

import (
	"context"
	"fmt"
	"strings"

	"riscvmem/internal/machine"
	"riscvmem/internal/metrics"
	"riscvmem/internal/report"
	"riscvmem/internal/run"
)

// Point is one value of an axis: a label for reporting plus the spec
// mutation it stands for. A nil Apply is the distinguished "base" point — it
// leaves the spec untouched.
type Point struct {
	Label string
	Apply func(machine.Spec) machine.Spec
}

// Base returns the identity point, labelled "base".
func Base() Point { return Point{Label: "base"} }

// Axis is one named sweep dimension.
type Axis struct {
	Name   string
	Points []Point
	// MutatesPrefetcher declares that this axis's points rewrite the
	// declarative stride-prefetcher config (as prefdist/preframp do).
	// Such mutations silently no-op on specs without one (custom
	// NewPrefetcher factories, or a prefetcher removed by another axis),
	// so Expand rejects those combinations instead of producing
	// misleadingly labelled duplicate cells. Set it on programmatically
	// built axes whose Apply uses WithPrefetchDistance/WithPrefetchRamp
	// to get the same protection as the parsed grammar.
	MutatesPrefetcher bool
}

// Cell is one point of the expanded cross-product.
type Cell struct {
	// Labels holds one "axis=value" entry per axis, in axis order.
	Labels []string
	// Spec is the mutated device. For the base cell it is byte-for-byte the
	// base preset — same Name, same Identity — which is what makes the
	// empty-mutation sweep bit-identical to a direct preset run.
	Spec machine.Spec
	// Base reports that every axis took its base point.
	Base bool
}

// Expand builds the full axis cross-product over the base spec, first axis
// outermost. Mutated cells are renamed "Base[axis=value,...]" (listing only
// the non-base points) so results, pool keys and error messages stay
// readable; the all-base cell keeps the spec untouched.
func Expand(base machine.Spec, axes []Axis) ([]Cell, error) {
	seen := map[string]bool{}
	for _, ax := range axes {
		if len(ax.Points) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values", ax.Name)
		}
		if seen[ax.Name] {
			// A duplicate axis would silently let the later declaration
			// override the earlier one while the labels claim both applied.
			return nil, fmt.Errorf("sweep: axis %q declared twice", ax.Name)
		}
		seen[ax.Name] = true
		if ax.MutatesPrefetcher && !base.HasDeclarativePrefetcher() {
			return nil, fmt.Errorf("sweep: axis %q requires a declarative prefetcher config (machine.Spec.Mem.Prefetch), but device %s uses a custom factory",
				ax.Name, base.Name)
		}
	}
	type partial struct {
		cell Cell
		muts []string // labels of the non-base points, for the cell name
		// declLabel remembers the first mutating point taken on a
		// declarative-prefetcher axis, to diagnose cells where a later (or
		// earlier) pref=off made that mutation a silent no-op.
		declLabel string
	}
	parts := []partial{{cell: Cell{Spec: base, Base: true}}}
	for _, ax := range axes {
		next := make([]partial, 0, len(parts)*len(ax.Points))
		for _, pc := range parts {
			for _, p := range ax.Points {
				label := ax.Name + "=" + p.Label
				nc := partial{
					cell: Cell{
						Labels: append(append([]string{}, pc.cell.Labels...), label),
						Spec:   pc.cell.Spec,
						Base:   pc.cell.Base && p.Apply == nil,
					},
					muts:      pc.muts,
					declLabel: pc.declLabel,
				}
				if p.Apply != nil {
					if ax.MutatesPrefetcher && !nc.cell.Spec.HasDeclarativePrefetcher() {
						return nil, fmt.Errorf("sweep: cell [%s]: axis %s has nothing to mutate — an earlier axis disabled the prefetcher",
							strings.Join(nc.cell.Labels, ","), ax.Name)
					}
					nc.cell.Spec = p.Apply(nc.cell.Spec)
					nc.muts = append(append([]string{}, pc.muts...), label)
					if ax.MutatesPrefetcher && nc.declLabel == "" {
						nc.declLabel = label
					}
				}
				next = append(next, nc)
			}
		}
		parts = next
	}
	cells := make([]Cell, len(parts))
	for i, pc := range parts {
		if pc.declLabel != "" && !pc.cell.Spec.HasDeclarativePrefetcher() {
			// A later axis (pref=off) erased the prefetcher this cell's
			// earlier mutation targeted; the row would be labelled with a
			// distance/ramp that took no effect.
			return nil, fmt.Errorf("sweep: cell [%s]: %s took no effect — a later axis disabled the prefetcher",
				strings.Join(pc.cell.Labels, ","), pc.declLabel)
		}
		cells[i] = pc.cell
		if !pc.cell.Base {
			cells[i].Spec = pc.cell.Spec.Renamed(
				fmt.Sprintf("%s[%s]", base.Name, strings.Join(pc.muts, ",")))
		}
	}
	return cells, nil
}

// Config describes one sweep.
type Config struct {
	// Base is the preset every cell mutates.
	Base machine.Spec
	// Axes are the sweep dimensions; their cross-product is the cell grid.
	// No axes means a single (base) cell.
	Axes []Axis
	// Workloads run in every cell.
	Workloads []run.Workload
	// Runner executes the batch; nil builds a fresh memoized runner.
	// Passing a shared runner lets overlapping sweeps reuse each other's
	// cached cells.
	Runner *run.Runner
	// OnProgress, when set, observes each cell×workload job as it
	// completes (serially, in completion order) — the hook async transports
	// stream partial sweep progress through. Base-relative deltas are only
	// computable once the whole grid (and its base cell) is in, so progress
	// carries raw per-job results; the deltas arrive with the final
	// Results.
	OnProgress func(run.Progress)
}

// CellResult is one (cell, workload) measurement with its base-relative
// deltas.
type CellResult struct {
	Cell   Cell
	Result run.Result
	// Speedup is how many times faster this cell ran the workload than the
	// base cell (>1: the mutation helps; exactly 1 for the base cell).
	Speedup float64
	// BandwidthVsBase is the cell's achieved bandwidth over the base
	// cell's, the utilization delta of the §3.3 metric under a shared
	// mandatory byte count (0 when the workload reports no bandwidth).
	BandwidthVsBase float64
}

// Results is the outcome of one sweep.
type Results struct {
	Base  machine.Spec
	Axes  []Axis
	Cells []Cell
	// PerCell holds one row per (cell, workload), cells outermost, in
	// expansion × workload order.
	PerCell []CellResult
	// BaseResults holds the base cell's Result per workload, in
	// Config.Workloads order — the denominator of every delta. Positional
	// (not name-keyed), so workloads sharing a Name but differing in
	// config keep their own base.
	BaseResults []run.Result
}

// Plan is one sweep's deterministic expansion: the cell grid, its reference
// cell and the job list. Every executor of a sweep — Run on a local runner,
// the service facade, the cluster coordinator's routing and each cluster
// worker re-deriving its share — builds it from the same (base, axes,
// workloads) recipe, so all of them agree on every job index.
type Plan struct {
	// Jobs is every cell × workload, cells outermost, workloads innermost.
	Jobs []run.Job

	base      machine.Spec
	axes      []Axis
	workloads []run.Workload
	// cells is the reported grid in expansion order. When every axis omits
	// the base point, a synthetic reference cell follows it: simulated as
	// the deltas' denominator, never reported.
	cells []Cell
	// reported counts the leading cells that appear in Results.
	reported int
	// baseIdx is the reference (all-base) cell's index in cells.
	baseIdx int
}

// NewPlan expands a sweep into its Plan. maxJobs > 0 bounds the grid from
// the axis point counts BEFORE expanding — Expand materializes every cell
// as a deep-cloned Spec, so an oversized request must be rejected before
// that allocation, not after. Callers re-deriving a grid someone else
// already bounded (cluster workers) pass 0.
func NewPlan(base machine.Spec, axes []Axis, workloads []run.Workload, maxJobs int) (*Plan, error) {
	if len(workloads) == 0 {
		return nil, fmt.Errorf("sweep: no workloads")
	}
	if maxJobs > 0 {
		cellCount := 1
		for _, ax := range axes {
			if len(ax.Points) == 0 {
				continue // Expand reports the precise error
			}
			cellCount *= len(ax.Points)
			if cellCount > maxJobs {
				return nil, fmt.Errorf("sweep: grid is at least %d cells, limit %d jobs", cellCount, maxJobs)
			}
		}
		if n := cellCount * len(workloads); n > maxJobs {
			return nil, fmt.Errorf("sweep: grid is %d jobs, limit %d", n, maxJobs)
		}
	}
	cells, err := Expand(base, axes)
	if err != nil {
		return nil, err
	}
	p := &Plan{base: base, axes: axes, workloads: workloads, reported: len(cells), baseIdx: -1}
	for i, c := range cells {
		if c.Base {
			p.baseIdx = i
			break
		}
	}
	if p.baseIdx < 0 {
		// Every axis omitted the base point; append a reference cell so
		// deltas remain well-defined. It is not part of the reported grid.
		cells = append(cells, Cell{Spec: base, Base: true})
		p.baseIdx = len(cells) - 1
	}
	p.cells = cells
	p.Jobs = make([]run.Job, 0, len(cells)*len(workloads))
	for _, c := range cells {
		for _, w := range workloads {
			p.Jobs = append(p.Jobs, run.Job{Device: c.Spec, Workload: w})
		}
	}
	return p, nil
}

// Assemble turns the positional outcomes of p.Jobs into Results, computing
// each reported cell's deltas against the reference cell. Any job error
// fails the sweep wholesale — base-relative deltas over a torn grid would
// be meaningless.
func (p *Plan) Assemble(results []run.Result, errs []error) (*Results, error) {
	if err := run.JoinErrors(errs); err != nil {
		return nil, fmt.Errorf("sweep on %s: %w", p.base.Name, err)
	}
	W := len(p.workloads)
	res := &Results{
		Base: p.base, Axes: p.axes, Cells: p.cells[:p.reported],
		BaseResults: results[p.baseIdx*W : (p.baseIdx+1)*W : (p.baseIdx+1)*W],
		PerCell:     make([]CellResult, 0, p.reported*W),
	}
	for ci, c := range res.Cells {
		for wi, base := range res.BaseResults {
			got := results[ci*W+wi]
			bwRatio := 0.0
			if base.Bandwidth > 0 {
				bwRatio = float64(got.Bandwidth) / float64(base.Bandwidth)
			}
			res.PerCell = append(res.PerCell, CellResult{
				Cell:            c,
				Result:          got,
				Speedup:         metrics.Speedup(base.Seconds, got.Seconds),
				BandwidthVsBase: bwRatio,
			})
		}
	}
	return res, nil
}

// Run expands the sweep and executes every cell × workload as one batch on
// the (memoized, pooled) runner. The base cell is always measured — it is
// part of every plan — and each cell's deltas are computed against it.
func Run(ctx context.Context, cfg Config) (*Results, error) {
	p, err := NewPlan(cfg.Base, cfg.Axes, cfg.Workloads, 0)
	if err != nil {
		return nil, err
	}
	r := cfg.Runner
	if r == nil {
		r = run.New(run.Options{})
	}
	return p.Assemble(r.RunAllWithProgress(ctx, p.Jobs, cfg.OnProgress))
}

// Table renders the sweep as a report.Table: one axis column per dimension,
// then the workload and its absolute and base-relative numbers.
func (r *Results) Table() report.Table {
	var axisNames []string
	for _, ax := range r.Axes {
		axisNames = append(axisNames, ax.Name)
	}
	t := report.Table{
		Title: fmt.Sprintf("Sweep: %s × {%s} (%d cells)",
			r.Base.Name, strings.Join(axisNames, ", "), len(r.Cells)),
		Headers: append(append([]string{}, axisNames...),
			"Workload", "Seconds", "Speedup", "Bandwidth", "BW×base"),
	}
	for _, cr := range r.PerCell {
		row := make([]string, 0, len(t.Headers))
		for _, lab := range cr.Cell.Labels {
			_, val, _ := strings.Cut(lab, "=")
			row = append(row, val)
		}
		row = append(row,
			cr.Result.Workload,
			fmt.Sprintf("%.6g", cr.Result.Seconds),
			fmt.Sprintf("%.3f", cr.Speedup),
			cr.Result.Bandwidth.String(),
			fmt.Sprintf("%.3f", cr.BandwidthVsBase),
		)
		t.Rows = append(t.Rows, row)
	}
	return t
}
