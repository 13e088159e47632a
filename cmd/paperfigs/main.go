// Command paperfigs regenerates the paper's figures (1, 2, 3, 6, 7) on the
// simulated devices and renders them as tables and ASCII bar charts, CSV,
// or JSON. The underlying Suite batches every figure's cross-product on a
// pooled runner.
//
// Usage:
//
//	paperfigs [-fig all|1|2|3|6|7] [-scale N] [-full] [-verify]
//	          [-format table|csv|json] [-device NAME]
//
// -scale divides the paper's workload sizes (default 8); -full is shorthand
// for -scale 1, the paper's exact sizes (expect a long run). -device limits
// the run to one machine.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"riscvmem/internal/core"
	"riscvmem/internal/machine"
	"riscvmem/internal/report"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 1, 2, 3, 6, 7, devices")
	scale := flag.Int("scale", 8, "divide paper workload sizes by this factor")
	full := flag.Bool("full", false, "paper-scale run (overrides -scale; slow)")
	verify := flag.Bool("verify", false, "verify kernel results against references")
	format := flag.String("format", "table", "output format: table, csv or json")
	device := flag.String("device", "", "restrict to one device (Xeon, RaspberryPi4, VisionFive, MangoPi)")
	flag.Parse()

	if err := report.CheckFormat(*format); err != nil {
		fatal(err)
	}

	opt := core.Options{Scale: *scale, Verify: *verify}
	if *full {
		opt.Scale = 1
	}
	if *device != "" {
		spec, err := machine.ByName(*device)
		if err != nil {
			fatal(err)
		}
		opt.Devices = []machine.Spec{spec}
	}
	s := core.NewSuite(opt)

	want := func(f string) bool { return *fig == "all" || *fig == f }
	if *fig == "devices" {
		printDevices(opt, *format)
		return
	}
	if want("1") {
		if err := fig1(s, *format); err != nil {
			fatal(err)
		}
	}
	var f2 []core.Fig2Row
	if want("2") || want("3") {
		var err error
		if f2, err = s.Fig2(); err != nil {
			fatal(err)
		}
	}
	if want("2") {
		fig2(s, f2, *format)
	}
	if want("3") {
		if err := fig3(s, f2, *format); err != nil {
			fatal(err)
		}
	}
	var f6 []core.Fig6Row
	if want("6") || want("7") {
		var err error
		if f6, err = s.Fig6(); err != nil {
			fatal(err)
		}
	}
	if want("6") {
		fig6(s, f6, *format)
	}
	if want("7") {
		if err := fig7(s, f6, *format); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperfigs:", err)
	os.Exit(1)
}

// emitRows writes headers+rows as CSV or JSON (the machine-readable
// formats; table rendering stays figure-specific).
func emitRows(format string, headers []string, rows [][]string) error {
	return report.Emit(os.Stdout, format, report.Table{Headers: headers, Rows: rows})
}

func printDevices(opt core.Options, format string) {
	devs := opt.Devices
	if len(devs) == 0 {
		devs = machine.All()
	}
	t := report.Table{Title: "Devices (paper §3.1)", Headers: []string{"Name", "CPU", "Cores", "GHz", "RAM", "Peak DRAM"}}
	for _, d := range devs {
		t.Add(d.Name, d.CPU, strconv.Itoa(d.Cores),
			fmt.Sprintf("%.1f", d.FreqGHz), fmt.Sprintf("%d MiB", d.RAMBytes>>20),
			d.PeakDRAMBandwidth().String())
	}
	if err := report.Emit(os.Stdout, format, t); err != nil {
		fatal(err)
	}
}

func fig1(s *core.Suite, format string) error {
	cells, err := s.Fig1()
	if err != nil {
		return err
	}
	if format != "table" {
		rows := make([][]string, 0, len(cells))
		for _, c := range cells {
			rows = append(rows, []string{c.Device, c.Level, c.Test.String(),
				fmt.Sprintf("%.4f", c.BW.GBps())})
		}
		return emitRows(format, []string{"device", "level", "test", "gbps"}, rows)
	}
	fmt.Println("=== Fig. 1: STREAM bandwidth per memory level (GB/s) ===")
	ch := report.Chart{Unit: "GB/s", Width: 50, LogHint: true}
	for _, c := range cells {
		ch.Add(fmt.Sprintf("%s %s %s", c.Device, c.Level, c.Test), c.BW.GBps(), "")
	}
	ch.Render(os.Stdout)
	fmt.Println()
	return nil
}

func fig2(s *core.Suite, rows []core.Fig2Row, format string) {
	if format != "table" {
		out := make([][]string, 0, len(rows))
		for _, r := range rows {
			out = append(out, []string{r.Device, strconv.Itoa(r.PaperN), strconv.Itoa(r.N),
				r.Variant.String(), fmt.Sprintf("%.6f", r.Seconds),
				fmt.Sprintf("%.3f", r.Speedup), strconv.FormatBool(r.Skipped)})
		}
		if err := emitRows(format, []string{"device", "paper_n", "n", "variant", "seconds", "speedup", "skipped"}, out); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("=== Fig. 2: matrix transposition time (simulated, N scaled %d×) ===\n", s.Options().Scale)
	t := report.Table{Headers: []string{"Device", "Paper N", "Sim N", "Variant", "Seconds", "Speedup"}}
	for _, r := range rows {
		if r.Skipped {
			t.Add(r.Device, strconv.Itoa(r.PaperN), "-", r.Variant.String(), "(matrix does not fit in RAM)", "-")
			continue
		}
		t.Add(r.Device, strconv.Itoa(r.PaperN), strconv.Itoa(r.N), r.Variant.String(),
			fmt.Sprintf("%.6f", r.Seconds), fmt.Sprintf("%.2f×", r.Speedup))
	}
	t.Render(os.Stdout)
	fmt.Println()
}

func fig3(s *core.Suite, f2 []core.Fig2Row, format string) error {
	rows, err := s.Fig3(f2)
	if err != nil {
		return err
	}
	if format != "table" {
		out := make([][]string, 0, len(rows))
		for _, r := range rows {
			out = append(out, []string{r.Device, strconv.Itoa(r.PaperN), r.Variant.String(),
				fmt.Sprintf("%.4f", r.Utilization), strconv.FormatBool(r.Skipped)})
		}
		return emitRows(format, []string{"device", "paper_n", "variant", "utilization", "skipped"}, out)
	}
	fmt.Println("=== Fig. 3: relative memory-bandwidth utilization (transpose) ===")
	ch := report.Chart{Width: 50}
	for _, r := range rows {
		if r.Skipped {
			continue
		}
		ch.Add(fmt.Sprintf("%s N=%d %s", r.Device, r.PaperN, r.Variant), r.Utilization, "")
	}
	ch.Render(os.Stdout)
	fmt.Println()
	return nil
}

func fig6(s *core.Suite, rows []core.Fig6Row, format string) {
	if format != "table" {
		out := make([][]string, 0, len(rows))
		for _, r := range rows {
			out = append(out, []string{r.Device, r.Variant.String(),
				fmt.Sprintf("%.6f", r.Seconds), fmt.Sprintf("%.3f", r.Speedup)})
		}
		if err := emitRows(format, []string{"device", "variant", "seconds", "speedup"}, out); err != nil {
			fatal(err)
		}
		return
	}
	w, hgt := core.PaperImageW/s.Options().Scale, core.PaperImageH/s.Options().Scale
	fmt.Printf("=== Fig. 6: Gaussian blur time (%d×%d×%d image, F=%d) ===\n", w, hgt, core.PaperImageC, core.PaperFilter)
	t := report.Table{Headers: []string{"Device", "Variant", "Seconds", "Speedup"}}
	for _, r := range rows {
		t.Add(r.Device, r.Variant.String(), fmt.Sprintf("%.6f", r.Seconds), fmt.Sprintf("%.2f×", r.Speedup))
	}
	t.Render(os.Stdout)
	fmt.Println()
}

func fig7(s *core.Suite, f6 []core.Fig6Row, format string) error {
	rows, err := s.Fig7(f6)
	if err != nil {
		return err
	}
	if format != "table" {
		out := make([][]string, 0, len(rows))
		for _, r := range rows {
			out = append(out, []string{r.Device, r.Variant.String(),
				fmt.Sprintf("%.4f", r.Utilization), fmt.Sprintf("%.3f", r.ImprovementOver1D)})
		}
		return emitRows(format, []string{"device", "variant", "utilization", "improvement_over_1d"}, out)
	}
	fmt.Println("=== Fig. 7: relative memory-bandwidth utilization (blur) ===")
	ch := report.Chart{Width: 50}
	for _, r := range rows {
		ch.Add(fmt.Sprintf("%s %s", r.Device, r.Variant), r.Utilization,
			fmt.Sprintf("%.2f× vs 1D", r.ImprovementOver1D))
	}
	ch.Render(os.Stdout)
	fmt.Println()
	return nil
}
