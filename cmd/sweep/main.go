// Command sweep runs declarative device-parameter ablations: named axes
// mutate a base device preset, the axis cross-product is expanded into
// cells, and every cell × workload executes as one batch on the memoized
// pooled runner. Each row reports the cell's time, its speedup over the
// unmutated base cell, and its bandwidth ratio against it.
//
// Usage:
//
//	sweep -device MangoPi -axis maxinflight=1,2,4,8,16 -axis l2=off,base,1MiB
//	      [-workloads "transpose:variant=Naive,n=512; stream/TRIAD"]
//	      [-n 512] [-elems 65536] [-reps 2] [-image 318x253x3] [-filter 19]
//	      [-format table|csv|json] [-cpuprofile FILE] [-memprofile FILE]
//	      [-cache-dir DIR] [-cache-stats]
//
// With -cache-dir the sweep reads and writes the same persistent result
// cache cmd/simd uses: cells a previous run (or a running daemon) already
// simulated are served from disk, and this run's cells are persisted for
// the next. -cache-stats prints tier-labelled cache counters to stderr
// after the sweep (how much came from memory, disk, or fresh simulation).
//
// Axis grammar (every axis also accepts the literal value "base", meaning
// "leave the parameter at the preset's value"):
//
//	l2=off|<size>        L2 capacity (adds one to devices without), e.g. 128KiB
//	maxinflight=<n>      per-core MSHR count (outstanding fills)
//	l1ways=<n>           L1 associativity
//	policy=<p>           replacement policy for all levels: LRU, Random, FIFO, PLRU
//	missoverlap=<f>      exposed-miss-latency factor in (0,1]
//	channels=<n>         DRAM channels
//	dramlat=<cycles>     DRAM access latency
//	prefdist=<n>         stride prefetcher max look-ahead distance
//	preframp=on|off      automatic prefetch-distance ramping
//	pref=off             disable prefetching
//
// Workloads use the spec grammar — kernel[:key=value,...], the same data
// form simd requests carry — separated by ';' or whitespace (parameters
// contain commas): "stream:test=TRIAD,elems=65536; transpose:variant=Naive".
// The kernel/variant shorthand (stream/TRIAD, transpose/Blocking,
// gblur/Memory) and registered custom workload names are accepted too, and
// a shorthand-only list may keep the legacy comma separation. The -n,
// -elems, -reps, -image and -filter flags fill in any size parameter a spec
// leaves unset.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"riscvmem/internal/machine"
	"riscvmem/internal/profiling"
	"riscvmem/internal/report"
	"riscvmem/internal/run"
	"riscvmem/internal/sweep"
)

// axisFlags collects repeated -axis declarations.
type axisFlags []sweep.Axis

func (a *axisFlags) String() string { return fmt.Sprintf("%d axes", len(*a)) }

func (a *axisFlags) Set(s string) error {
	ax, err := sweep.ParseAxis(s)
	if err != nil {
		return err
	}
	*a = append(*a, ax)
	return nil
}

// workloadSizes carries the size flags that act as spec-parameter defaults.
type workloadSizes struct {
	n, elems, reps, filter int
	imgW, imgH, imgC       int
}

// defaults returns the per-kernel parameters the size flags stand in for
// when a spec leaves them unset.
func (sz workloadSizes) defaults(kernel string) map[string]string {
	switch kernel {
	case "stream":
		return map[string]string{"elems": strconv.Itoa(sz.elems), "reps": strconv.Itoa(sz.reps)}
	case "transpose":
		return map[string]string{"n": strconv.Itoa(sz.n)}
	case "gblur":
		return map[string]string{"w": strconv.Itoa(sz.imgW), "h": strconv.Itoa(sz.imgH),
			"c": strconv.Itoa(sz.imgC), "f": strconv.Itoa(sz.filter)}
	}
	return nil
}

// splitWorkloads tokenizes the -workloads value. Specs are separated by
// ';' or whitespace, since parameters contain commas; a list without any
// ':' has no parameters, so the legacy comma separation of shorthand names
// ("transpose/Naive,stream/TRIAD") still splits.
func splitWorkloads(s string) []string {
	seps := func(r rune) bool { return r == ';' || r == ' ' || r == '\t' }
	if !strings.Contains(s, ":") {
		seps = func(r rune) bool { return r == ';' || r == ' ' || r == '\t' || r == ',' }
	}
	return strings.FieldsFunc(s, seps)
}

// parseWorkload resolves one spec string into a Workload, overlaying the
// size-flag defaults onto parameters the spec does not set.
func parseWorkload(name string, sz workloadSizes) (run.Workload, error) {
	spec, err := run.ParseWorkloadSpec(name)
	if err != nil {
		return nil, err
	}
	for k, v := range sz.defaults(spec.Kernel) {
		if _, set := spec.Params[k]; !set {
			spec = spec.With(k, v)
		}
	}
	return run.NewWorkload(spec)
}

func main() {
	device := flag.String("device", "MangoPi", "base device preset to ablate")
	var axes axisFlags
	flag.Var(&axes, "axis", "sweep axis as name=v1,v2,... (repeatable); axes: "+
		strings.Join(sweep.AxisNames(), ", "))
	workloads := flag.String("workloads", "transpose/Naive",
		"workload specs (kernel[:key=value,...]) to run in every cell, ';'-separated")
	n := flag.Int("n", 512, "transpose matrix dimension")
	elems := flag.Int("elems", 65536, "STREAM per-array element count")
	reps := flag.Int("reps", 2, "STREAM timed repetitions (best kept)")
	image := flag.String("image", "318x253x3", "gblur image size as WxHxC")
	filter := flag.Int("filter", 19, "gblur odd filter size")
	format := flag.String("format", "table", "output format: table, csv or json")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	cacheDir := flag.String("cache-dir", "", "persistent result-cache directory shared with simd; empty = memory-only")
	cacheStats := flag.Bool("cache-stats", false, "print tier-labelled cache counters to stderr after the sweep")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	if err := report.CheckFormat(*format); err != nil {
		fail(err)
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fail(err)
	}
	defer stopProf()
	// os.Exit skips defers: later failures flush the profiles explicitly so
	// a failed run never leaves a truncated CPU profile behind.
	fail = func(err error) {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		stopProf()
		os.Exit(1)
	}

	base, err := machine.ByName(*device)
	if err != nil {
		fail(err)
	}
	sz := workloadSizes{n: *n, elems: *elems, reps: *reps, filter: *filter}
	if _, err := fmt.Sscanf(*image, "%dx%dx%d", &sz.imgW, &sz.imgH, &sz.imgC); err != nil {
		fail(fmt.Errorf("bad -image %q: want WxHxC", *image))
	}
	var ws []run.Workload
	for _, name := range splitWorkloads(*workloads) {
		w, err := parseWorkload(name, sz)
		if err != nil {
			fail(err)
		}
		ws = append(ws, w)
	}
	if len(ws) == 0 {
		fail(fmt.Errorf("no workloads given"))
	}

	store, err := run.OpenStore(*cacheDir, 0, func(f string, args ...any) {
		fmt.Fprintf(os.Stderr, "sweep: "+f+"\n", args...)
	})
	if err != nil {
		fail(err)
	}
	runner := run.New(run.Options{Store: store})

	res, err := sweep.Run(context.Background(), sweep.Config{
		Base: base, Axes: axes, Workloads: ws, Runner: runner,
	})
	if err != nil {
		fail(err)
	}
	if err := report.Emit(os.Stdout, *format, res.Table()); err != nil {
		fail(err)
	}
	if *cacheStats {
		hits, misses := runner.CacheStats()
		ts := runner.TierStats()
		fmt.Fprintf(os.Stderr,
			"sweep: cache: %d hits, %d misses (simulated); memory tier %d hits / %d misses, disk tier %d hits / %d misses, %d persisted, %d corrupt, %d persist errors\n",
			hits, misses, ts.MemoryHits, ts.MemoryMisses, ts.DiskHits, ts.DiskMisses,
			ts.DiskWrites, ts.DiskCorrupt, ts.DiskWriteErrors)
	}
}
