// Command kernel runs the paper's kernels — STREAM (§4.1), in-place
// transposition (§4.2), Gaussian blur (§4.3) — on the simulated devices. Its
// arguments are workload specs in the grammar cmd/sweep and simd requests
// use; all cells execute as one batch on a pooled runner.
//
//	kernel [-device NAME|all] [-scale N] [-stats] [-format table|csv|json]
//	       [-cpuprofile FILE] [-memprofile FILE] SPEC...
//
// A spec that leaves its kernel's variant key unset (test for stream,
// variant for transpose and gblur) runs the whole ladder, and a stream spec
// without elems runs one row per memory level of the device, sized by
// stream.Levels (-scale divides the DRAM working set). Speedup is over the
// first row of the same kernel on the same device.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"

	"riscvmem/internal/kernels/blur"
	"riscvmem/internal/kernels/stream"
	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/machine"
	"riscvmem/internal/profiling"
	"riscvmem/internal/report"
	"riscvmem/internal/run"
)

// cell is one row to be: an expanded spec and, if stream.Levels sized it, "@" + the level.
type cell struct {
	spec   run.WorkloadSpec
	suffix string
}

// over returns spec once per variant with key set to it, or spec alone when
// it sets key itself.
func over[T fmt.Stringer](spec run.WorkloadSpec, key string, variants []T) []cell {
	if _, set := spec.Params[key]; set {
		return []cell{{spec: spec}}
	}
	var out []cell
	for _, v := range variants {
		out = append(out, cell{spec: spec.With(key, v.String())})
	}
	return out
}

// expand turns one spec into the cells it stands for on one device.
func expand(spec run.WorkloadSpec, dev machine.Spec, scale int) []cell {
	cells := []cell{{spec: spec}}
	switch spec.Kernel {
	case "stream":
		cells = over(spec, "test", stream.Tests())
	case "transpose":
		cells = over(spec, "variant", transpose.Variants())
	case "gblur":
		cells = over(spec, "variant", blur.Variants())
	}
	if _, sized := spec.Params["elems"]; spec.Kernel != "stream" || sized {
		return cells
	}
	var rows []cell
	for _, lv := range stream.Levels(dev, scale) {
		for _, c := range cells {
			s := c.spec.With("elems", strconv.Itoa(lv.Elems)).With("cores", strconv.Itoa(lv.Cores)).
				With("scaleby", strconv.Itoa(lv.ScaleBy))
			rows = append(rows, cell{s, "@" + lv.Name})
		}
	}
	return rows
}

// plan expands every spec on every device and builds the jobs; it fails on
// the first spec the grammar or a kernel's factory rejects.
func plan(devices []machine.Spec, args []string, scale int) (jobs []run.Job, cells []cell, _ error) {
	for _, dev := range devices {
		for _, arg := range args {
			spec, err := run.ParseWorkloadSpec(arg)
			if err != nil {
				return nil, nil, err
			}
			for _, c := range expand(spec, dev, scale) {
				w, err := run.NewWorkload(c.spec)
				if err != nil {
					return nil, nil, err
				}
				jobs = append(jobs, run.Job{Device: dev, Workload: w})
				cells = append(cells, c)
			}
		}
	}
	return jobs, cells, nil
}

func main() {
	device := flag.String("device", "all", "device name, or all")
	scale := flag.Int("scale", 8, "divide the DRAM working set of level-sized STREAM rows by this factor")
	stats := flag.Bool("stats", false, "add the memory-system counters to every row")
	format := flag.String("format", "table", "output format: table, csv or json")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file after the run")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "kernel:", err)
		os.Exit(1)
	}
	if err := report.CheckFormat(*format); err != nil {
		fail(err)
	}
	devices := machine.All()
	if *device != "all" {
		spec, err := machine.ByName(*device)
		if err != nil {
			fail(err)
		}
		devices = []machine.Spec{spec}
	}
	jobs, cells, err := plan(devices, flag.Args(), *scale)
	if err != nil {
		fail(err)
	}
	if len(jobs) == 0 {
		fail(fmt.Errorf("no workload spec given (want %s)", run.SpecGrammar))
	}
	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fail(err)
	}
	results, err := run.New(run.Options{}).Run(context.Background(), jobs)
	stopProf() // before any exit: os.Exit skips defers and a truncated CPU profile is useless
	if err != nil {
		fail(err)
	}

	tb := report.Table{Headers: []string{"Device", "Workload", "Seconds", "Speedup", "Bandwidth"}}
	if *stats {
		tb.Headers = append(tb.Headers, "L1 miss", "TLB walks", "DRAM MiB", "PF fills")
	}
	first := map[[2]string]run.Result{} // (device, kernel) → its first row
	for i, res := range results {
		k := [2]string{res.Device, cells[i].spec.Kernel}
		if _, seen := first[k]; !seen {
			first[k] = res
		}
		row := []string{res.Device, res.Workload + cells[i].suffix, fmt.Sprintf("%.6f", res.Seconds),
			fmt.Sprintf("%.2f×", res.SpeedupOver(first[k])), res.Bandwidth.String()}
		if *stats {
			row = append(row, fmt.Sprintf("%.1f%%", 100*res.Mem.L1MissRate()), strconv.FormatUint(res.Mem.TLBWalks, 10),
				fmt.Sprintf("%.1f", float64(res.Mem.DRAMBytes)/(1<<20)), strconv.FormatUint(res.Mem.PrefetchFills, 10))
		}
		tb.Add(row...)
	}
	if err := report.Emit(os.Stdout, *format, tb); err != nil {
		fail(err)
	}
}
