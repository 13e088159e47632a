// Command kernel runs the paper's kernels — STREAM (§4.1), in-place
// transposition (§4.2), Gaussian blur (§4.3) — on the simulated devices. Its
// arguments are workload specs in the grammar cmd/sweep and simd requests
// use; all cells execute as one batch on a pooled runner.
//
//	kernel [-device NAME|all] [-scale N] [-stats] [-format table|csv|json]
//	       [-cpuprofile FILE] [-memprofile FILE] SPEC...
//
// Each spec expands on each device through core.Expand, the expander the
// paper's figures use: an unset variant key runs the whole ladder, and an
// unsized stream spec one row per memory level (-scale divides the DRAM
// working set). Speedup is over the first row of the same kernel on the
// same device.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"

	"riscvmem/internal/core"
	"riscvmem/internal/machine"
	"riscvmem/internal/profiling"
	"riscvmem/internal/report"
	"riscvmem/internal/run"
)

func main() {
	device := flag.String("device", "all", "device name, or all")
	scale := flag.Int("scale", 8, "divide the DRAM working set of level-sized STREAM rows by this factor")
	stats := flag.Bool("stats", false, "add the memory-system counters to every row")
	format := flag.String("format", "table", "output format: table, csv or json")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file after the run")
	flag.Parse()

	check(report.CheckFormat(*format))
	devices := machine.All()
	if *device != "all" {
		devices = []machine.Spec{must(machine.ByName(*device))}
	}
	var cells []core.Cell
	var jobs []run.Job
	for _, dev := range devices {
		for _, arg := range flag.Args() {
			for _, c := range must(core.Expand(dev, must(run.ParseWorkloadSpec(arg)), *scale)) {
				cells, jobs = append(cells, c), append(jobs, c.Job)
			}
		}
	}
	if len(jobs) == 0 {
		check(fmt.Errorf("no workload spec given (want %s)", run.SpecGrammar))
	}
	stopProf := must(profiling.Start(*cpuprofile, *memprofile))
	results, err := run.New(run.Options{}).Run(context.Background(), jobs)
	stopProf() // before any exit: os.Exit skips defers and a truncated CPU profile is useless
	check(err)

	tb := report.Table{Headers: []string{"Device", "Workload", "Seconds", "Speedup", "Bandwidth"}}
	if *stats {
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
		if *stats {
			row = append(row, fmt.Sprintf("%.1f%%", 100*res.Mem.L1MissRate()), strconv.FormatUint(res.Mem.TLBWalks, 10),
				fmt.Sprintf("%.1f", float64(res.Mem.DRAMBytes)/(1<<20)), strconv.FormatUint(res.Mem.PrefetchFills, 10))
		}
		tb.Add(row...)
	}
	check(report.Emit(os.Stdout, *format, tb))
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
