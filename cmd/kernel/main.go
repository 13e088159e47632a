// Command kernel runs the paper's kernels — STREAM (§4.1), in-place
// transposition (§4.2), Gaussian blur (§4.3) — on the simulated devices. Its
// arguments are workload specs in the grammar simd requests use; all cells
// execute as one batch on a pooled runner.
//
//	kernel [-device NAME|all] [-scale N] [-stats] [-format table|csv|json]
//	       [-axis name=v1,v2,...]... [-cache-dir DIR] [-cache-stats]
//	       [-cpuprofile FILE] [-memprofile FILE] SPEC...
//
// Each spec expands on each device through core.Expand, the expander the
// paper's figures use: an unset variant key runs the whole ladder, and an
// unsized stream spec one row per memory level (-scale divides the DRAM
// working set). Speedup is over the first row of the same kernel on the
// same device.
//
// With -axis name=v1,v2,... (repeatable; -h lists the axes, and each also
// accepts "base", the preset's value), every cell runs on each point of the
// axes' cross-product over the one -device, and each row reports its
// speedup and bandwidth ratio over the unmutated device:
//
//	kernel -device MangoPi -axis l2=base,128KiB -axis maxinflight=1,base \
//	       transpose:variant=Naive,n=512 stream:test=TRIAD,elems=65536,reps=2
//
// -cache-dir reads and writes the persistent result cache simd uses, so
// cells a previous run simulated come from disk; -cache-stats prints its
// tier counters to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"riscvmem/internal/core"
	"riscvmem/internal/machine"
	"riscvmem/internal/profiling"
	"riscvmem/internal/report"
	"riscvmem/internal/run"
	"riscvmem/internal/sweep"
)

// axes collects repeated -axis declarations.
type axes []sweep.Axis

func (a *axes) String() string { return fmt.Sprintf("%d axes", len(*a)) }

func (a *axes) Set(s string) error {
	ax, err := sweep.ParseAxis(s)
	if err == nil {
		*a = append(*a, ax)
	}
	return err
}

func main() {
	device := flag.String("device", "all", "device name, or all")
	scale := flag.Int("scale", 8, "divide the DRAM working set of level-sized STREAM rows by this factor")
	stats := flag.Bool("stats", false, "add the memory-system counters to every row")
	format := flag.String("format", "table", "output format: table, csv or json")
	var sweepAxes axes
	flag.Var(&sweepAxes, "axis", "sweep a device parameter as name=v1,v2,... (repeatable); axes: "+
		strings.Join(sweep.AxisNames(), ", "))
	cacheDir := flag.String("cache-dir", "", "persistent result-cache directory shared with simd; empty = memory-only")
	cacheStats := flag.Bool("cache-stats", false, "print tier-labelled cache counters to stderr after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file after the run")
	flag.Parse()

	check(report.CheckFormat(*format))
	swept := len(sweepAxes) > 0
	switch {
	case swept && *device == "all":
		check(errors.New("-axis mutates one device: give -device NAME"))
	case swept && *stats:
		check(errors.New("-axis rows carry no memory counters: drop -stats, or run the cell without -axis"))
	}
	devices := machine.All()
	if *device != "all" {
		devices = []machine.Spec{must(machine.ByName(*device))}
	}
	var cells []core.Cell
	var jobs []run.Job
	var workloads []run.Workload
	for _, dev := range devices {
		for _, arg := range flag.Args() {
			for _, c := range must(core.Expand(dev, must(run.ParseWorkloadSpec(arg)), *scale)) {
				if swept && c.Level != "" {
					check(fmt.Errorf("-axis: %s is unsized, so its level rows would share one workload name: set elems=N", arg))
				}
				cells, jobs, workloads = append(cells, c), append(jobs, c.Job), append(workloads, c.Workload)
			}
		}
	}
	if len(jobs) == 0 {
		check(fmt.Errorf("no workload spec given (want %s)", run.SpecGrammar))
	}
	store := must(run.OpenStore(*cacheDir, 0, func(f string, args ...any) {
		fmt.Fprintf(os.Stderr, "kernel: "+f+"\n", args...)
	}))
	runner := run.New(run.Options{Store: store})
	stopProf := must(profiling.Start(*cpuprofile, *memprofile))
	var tb report.Table
	if swept {
		res, err := sweep.Run(context.Background(), sweep.Config{Base: devices[0], Axes: sweepAxes, Workloads: workloads, Runner: runner})
		stopProf() // before any exit: os.Exit skips defers and a truncated CPU profile is useless
		tb = must(res, err).Table()
	} else {
		results, err := runner.Run(context.Background(), jobs)
		stopProf()
		tb = table(cells, must(results, err), *stats)
	}
	check(report.Emit(os.Stdout, *format, tb))
	if *cacheStats {
		hits, misses := runner.CacheStats()
		ts := runner.TierStats()
		fmt.Fprintf(os.Stderr,
			"kernel: cache: %d hits, %d misses (simulated); memory tier %d hits / %d misses, disk tier %d hits / %d misses, %d persisted, %d corrupt, %d persist errors\n",
			hits, misses, ts.MemoryHits, ts.MemoryMisses, ts.DiskHits, ts.DiskMisses,
			ts.DiskWrites, ts.DiskCorrupt, ts.DiskWriteErrors)
	}
}

// table is one row per cell, its speedup over the first row of the same
// kernel on the same device, and with stats its memory counters.
func table(cells []core.Cell, results []run.Result, stats bool) report.Table {
	tb := report.Table{Headers: []string{"Device", "Workload", "Seconds", "Speedup", "Bandwidth"}}
	if stats {
		tb.Headers = append(tb.Headers, "L1 miss", "TLB walks", "DRAM MiB", "PF fills")
	}
	first := map[[2]string]run.Result{} // (device, kernel) → its first row
	for i, res := range results {
		k := [2]string{res.Device, cells[i].Spec.Kernel}
		if _, seen := first[k]; !seen {
			first[k] = res
		}
		name := res.Workload
		if lv := cells[i].Level; lv != "" {
			name += "@" + lv
		}
		row := []string{res.Device, name, fmt.Sprintf("%.6f", res.Seconds),
			fmt.Sprintf("%.2f×", res.SpeedupOver(first[k])), res.Bandwidth.String()}
		if stats {
			row = append(row, fmt.Sprintf("%.1f%%", 100*res.Mem.L1MissRate()), strconv.FormatUint(res.Mem.TLBWalks, 10),
				fmt.Sprintf("%.1f", float64(res.Mem.DRAMBytes)/(1<<20)), strconv.FormatUint(res.Mem.PrefetchFills, 10))
		}
		tb.Add(row...)
	}
	return tb
}

// check exits with err, if there is one.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kernel:", err)
		os.Exit(1)
	}
}

// must returns v, or exits with err.
func must[T any](v T, err error) T {
	check(err)
	return v
}
