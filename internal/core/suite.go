// Package core orchestrates the paper's experiments: it wires the kernels,
// device presets and metrics together to regenerate every table and figure
// of the evaluation section (Fig. 1, 2, 3, 6, 7 — Figs. 4 and 5 are
// explanatory diagrams).
//
// All experiments take a Scale: the paper's full workloads (8192²/16384²
// doubles, a 2544×2027×3 image) are expensive under functional simulation,
// so scaled runs shrink the working sets while keeping them far beyond every
// cache capacity — the regime every figure depends on. Scale 1 reproduces
// the paper's exact sizes.
package core

import (
	"context"
	"fmt"

	"riscvmem/internal/kernels/blur"
	"riscvmem/internal/kernels/stream"
	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/machine"
	"riscvmem/internal/metrics"
	"riscvmem/internal/run"
	"riscvmem/internal/units"
)

// Paper-scale workload constants (§4).
const (
	PaperMatrixSmall = 8192
	PaperMatrixLarge = 16384
	PaperImageW      = 2544
	PaperImageH      = 2027
	PaperImageC      = 3
	PaperFilter      = 19
)

// Options configures a Suite.
type Options struct {
	// Scale divides workload sizes; 1 = paper scale. 0 defaults to 8.
	Scale int
	// Devices defaults to the paper's four machines.
	Devices []machine.Spec
	// Verify checks functional correctness of every kernel run.
	Verify bool
	// Reps for STREAM repetitions (default 2).
	Reps int
}

func (o Options) withDefaults() Options {
	if o.Scale < 1 {
		o.Scale = 8
	}
	if len(o.Devices) == 0 {
		o.Devices = machine.All()
	}
	if o.Reps < 1 {
		o.Reps = 2
	}
	return o
}

// Suite runs experiments, caching the STREAM DRAM bandwidth each device
// achieves (the denominator of every utilization metric). All measurements
// execute as batches on a pooled run.Runner: machines are reset and reused
// across jobs, and the figure cross-products run on host goroutines — with
// results bit-identical to serial fresh-machine runs (the runner package's
// oracle tests pin this equivalence).
//
// The runner also memoizes Results (every built-in workload is run.Keyed),
// so the suite's repeated cells simulate exactly once: DRAMBandwidth reuses
// the Fig1 DRAM-level STREAM cells, a Fig3(nil) that re-derives Fig2 replays
// it from the cache, and re-running any figure on the same Suite performs
// zero new simulations (see CacheStats).
type Suite struct {
	opt    Options
	runner *run.Runner
	dramBW map[string]units.BytesPerSec
}

// NewSuite builds a Suite.
func NewSuite(opt Options) *Suite {
	return &Suite{
		opt:    opt.withDefaults(),
		runner: run.New(run.Options{}),
		dramBW: map[string]units.BytesPerSec{},
	}
}

// Options returns the effective (defaulted) options.
func (s *Suite) Options() Options { return s.opt }

// DRAMBandwidth returns the device's best achieved STREAM bandwidth at the
// DRAM level (maximum over the four tests), measuring it on first use.
func (s *Suite) DRAMBandwidth(spec machine.Spec) (units.BytesPerSec, error) {
	if bw, ok := s.dramBW[spec.Name]; ok {
		return bw, nil
	}
	levels := stream.Levels(spec, s.opt.Scale)
	dram := levels[len(levels)-1]
	workloads := make([]run.Workload, 0, len(stream.Tests()))
	for _, t := range stream.Tests() {
		workloads = append(workloads, run.Stream(stream.Config{
			Test: t, Elems: dram.Elems, Cores: dram.Cores,
			Reps: s.opt.Reps, ScaleBy: dram.ScaleBy,
		}))
	}
	results, err := s.runner.Run(context.Background(), run.Cross([]machine.Spec{spec}, workloads))
	if err != nil {
		return 0, fmt.Errorf("stream DRAM sweep: %w", err)
	}
	var best units.BytesPerSec
	for _, r := range results {
		if r.Bandwidth > best {
			best = r.Bandwidth
		}
	}
	s.dramBW[spec.Name] = best
	return best, nil
}

// Fig1Cell is one bar of Fig. 1: achieved STREAM bandwidth for a device,
// memory level and test.
type Fig1Cell struct {
	Device string
	Level  string
	Test   stream.Test
	BW     units.BytesPerSec
}

// Fig1 measures STREAM at every memory level of every device, batching the
// whole device × level × test cross-product through the pooled runner.
func (s *Suite) Fig1() ([]Fig1Cell, error) {
	var jobs []run.Job
	var cells []Fig1Cell
	for _, spec := range s.opt.Devices {
		for _, lv := range stream.Levels(spec, s.opt.Scale) {
			for _, t := range stream.Tests() {
				jobs = append(jobs, run.Job{Device: spec, Workload: run.Stream(stream.Config{
					Test: t, Elems: lv.Elems, Cores: lv.Cores,
					Reps: s.opt.Reps, ScaleBy: lv.ScaleBy,
				})})
				cells = append(cells, Fig1Cell{Device: spec.Name, Level: lv.Name, Test: t})
			}
		}
	}
	results, err := s.runner.Run(context.Background(), jobs)
	if err != nil {
		return nil, fmt.Errorf("fig1: %w", err)
	}
	for i, r := range results {
		cells[i].BW = r.Bandwidth
		if cells[i].Level == "DRAM" && r.Bandwidth > s.dramBW[cells[i].Device] {
			s.dramBW[cells[i].Device] = r.Bandwidth // reuse for utilization metrics
		}
	}
	return cells, nil
}

// Fig2Row is one bar of Fig. 2: a transposition variant's time on a device,
// annotated with its speedup over the naive version.
type Fig2Row struct {
	Device  string
	N       int // simulated matrix dimension (paper size / scale)
	PaperN  int // the paper-scale dimension this row stands for
	Variant transpose.Variant
	Seconds float64
	Speedup float64
	// Skipped mirrors the paper's capacity story: true when the paper-scale
	// matrix does not fit the device's RAM (16384² on the Mango Pi).
	Skipped bool
}

// matrixSizes returns the two simulated sizes (paper sizes / scale), kept
// block-aligned.
func (s *Suite) matrixSizes() [2]int {
	clamp := func(n int) int {
		n &^= 63 // multiple of 64 for any block size
		if n < 64 {
			n = 64
		}
		return n
	}
	return [2]int{clamp(PaperMatrixSmall / s.opt.Scale), clamp(PaperMatrixLarge / s.opt.Scale)}
}

// Fig2 runs the five transposition variants on both matrix sizes, batching
// every fitting device × size × variant combination through the runner.
func (s *Suite) Fig2() ([]Fig2Row, error) {
	var jobs []run.Job
	var rows []Fig2Row
	measured := make([]int, 0, 8) // measured[result index] = row index
	sizes := s.matrixSizes()
	for _, spec := range s.opt.Devices {
		for si, n := range sizes {
			paperN := [2]int{PaperMatrixSmall, PaperMatrixLarge}[si]
			fits := spec.Fits(8 * int64(paperN) * int64(paperN))
			for _, v := range transpose.Variants() {
				row := Fig2Row{Device: spec.Name, N: n, PaperN: paperN, Variant: v, Skipped: !fits}
				if fits {
					measured = append(measured, len(rows))
					jobs = append(jobs, run.Job{Device: spec, Workload: run.Transpose(
						transpose.Config{N: n, Variant: v, Verify: s.opt.Verify})})
				}
				rows = append(rows, row)
			}
		}
	}
	results, err := s.runner.Run(context.Background(), jobs)
	if err != nil {
		return nil, fmt.Errorf("fig2: %w", err)
	}
	type key struct {
		dev string
		n   int
	}
	naive := map[key]float64{}
	for ri, res := range results {
		row := &rows[measured[ri]]
		row.Seconds = res.Seconds
		k := key{row.Device, row.N}
		if row.Variant == transpose.Naive {
			naive[k] = res.Seconds
		}
		row.Speedup = metrics.Speedup(naive[k], res.Seconds)
	}
	return rows, nil
}

// Fig3Row is one bar of Fig. 3: memory-bandwidth utilization of the naive
// and the best optimized transposition on a device.
type Fig3Row struct {
	Device      string
	N           int
	PaperN      int
	Variant     transpose.Variant
	Utilization float64
	Skipped     bool
}

// Fig3 computes the §3.3 utilization metric for the naive and the best
// optimized implementation, per device and size. It can reuse rows from a
// prior Fig2 call; pass nil to measure afresh.
func (s *Suite) Fig3(fig2 []Fig2Row) ([]Fig3Row, error) {
	if fig2 == nil {
		var err error
		fig2, err = s.Fig2()
		if err != nil {
			return nil, err
		}
	}
	type key struct {
		dev string
		n   int
	}
	naive := map[key]Fig2Row{}
	best := map[key]Fig2Row{}
	for _, r := range fig2 {
		if r.Skipped {
			continue
		}
		k := key{r.Device, r.N}
		if r.Variant == transpose.Naive {
			naive[k] = r
		} else if b, ok := best[k]; !ok || r.Seconds < b.Seconds {
			best[k] = r
		}
	}
	var out []Fig3Row
	for _, spec := range s.opt.Devices {
		bw, err := s.DRAMBandwidth(spec)
		if err != nil {
			return nil, err
		}
		for si, n := range s.matrixSizes() {
			paperN := [2]int{PaperMatrixSmall, PaperMatrixLarge}[si]
			k := key{spec.Name, n}
			nv, ok := naive[k]
			if !ok {
				out = append(out, Fig3Row{Device: spec.Name, N: n, PaperN: paperN, Skipped: true})
				continue
			}
			bytes := transpose.BytesMoved(n)
			bv := best[k]
			out = append(out,
				Fig3Row{Device: spec.Name, N: n, PaperN: paperN, Variant: nv.Variant,
					Utilization: metrics.Utilization(bytes, nv.Seconds, bw)},
				Fig3Row{Device: spec.Name, N: n, PaperN: paperN, Variant: bv.Variant,
					Utilization: metrics.Utilization(bytes, bv.Seconds, bw)},
			)
		}
	}
	return out, nil
}

// imageSize returns the simulated blur image dimensions.
func (s *Suite) imageSize() (w, h int) {
	return PaperImageW / s.opt.Scale, PaperImageH / s.opt.Scale
}

// Fig6Row is one bar of Fig. 6: a blur variant's time and speedup.
type Fig6Row struct {
	Device  string
	W, H    int
	Variant blur.Variant
	Seconds float64
	Speedup float64
}

// Fig6 runs the five Gaussian-blur variants on every device, batched as one
// device × variant cross-product.
func (s *Suite) Fig6() ([]Fig6Row, error) {
	w, h := s.imageSize()
	workloads := make([]run.Workload, 0, len(blur.Variants()))
	for _, v := range blur.Variants() {
		workloads = append(workloads, run.Blur(blur.Config{
			W: w, H: h, C: PaperImageC, F: PaperFilter, Variant: v, Verify: s.opt.Verify,
		}))
	}
	results, err := s.runner.Run(context.Background(), run.Cross(s.opt.Devices, workloads))
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	out := make([]Fig6Row, 0, len(results))
	naive := map[string]float64{}
	i := 0
	for _, spec := range s.opt.Devices {
		for _, v := range blur.Variants() {
			res := results[i]
			i++
			if v == blur.Naive {
				naive[spec.Name] = res.Seconds
			}
			out = append(out, Fig6Row{
				Device: spec.Name, W: w, H: h, Variant: v,
				Seconds: res.Seconds, Speedup: metrics.Speedup(naive[spec.Name], res.Seconds),
			})
		}
	}
	return out, nil
}

// Fig7Row is one bar of Fig. 7: bandwidth utilization of an optimized blur
// variant, annotated with its improvement over 1D_kernels.
type Fig7Row struct {
	Device      string
	Variant     blur.Variant
	Utilization float64
	// ImprovementOver1D is this variant's utilization divided by the
	// 1D_kernels utilization (the labels in the paper's Fig. 7).
	ImprovementOver1D float64
}

// Fig7 computes the utilization metric for the three optimized blur
// implementations (1D_kernels, Memory, Parallel), reusing Fig6 rows when
// given (pass nil to measure afresh).
func (s *Suite) Fig7(fig6 []Fig6Row) ([]Fig7Row, error) {
	if fig6 == nil {
		var err error
		fig6, err = s.Fig6()
		if err != nil {
			return nil, err
		}
	}
	w, h := s.imageSize()
	bytes := blur.BytesMoved(w, h, PaperImageC)
	secs := map[string]map[blur.Variant]float64{}
	for _, r := range fig6 {
		if secs[r.Device] == nil {
			secs[r.Device] = map[blur.Variant]float64{}
		}
		secs[r.Device][r.Variant] = r.Seconds
	}
	var out []Fig7Row
	for _, spec := range s.opt.Devices {
		bw, err := s.DRAMBandwidth(spec)
		if err != nil {
			return nil, err
		}
		base := metrics.Utilization(bytes, secs[spec.Name][blur.OneD], bw)
		for _, v := range []blur.Variant{blur.OneD, blur.Memory, blur.Parallel} {
			u := metrics.Utilization(bytes, secs[spec.Name][v], bw)
			imp := 0.0
			if base > 0 {
				imp = u / base
			}
			out = append(out, Fig7Row{Device: spec.Name, Variant: v, Utilization: u, ImprovementOver1D: imp})
		}
	}
	return out, nil
}
