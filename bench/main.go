// Command bench is the repository's benchmark: five workloads, five
// end-to-end metrics measured with tracing off, and the per-layer metrics of
// one separate traced run. See README.md in this directory for every name
// and definition, and BENCHMARK.json at the repository root for the contract
// the numbers are checked against.
//
//	go run ./bench -workload serve_warm            one workload, end to end
//	go run ./bench -workload serve_warm -trace 1   its traced run (layers, spans)
//	go run ./bench                                 all five, end to end
//	go run ./bench -selfcheck                      A/B of the same binary against the bounds
//
// The last line on standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"riscvmem/internal/sim"
)

func main() {
	workloadName := flag.String("workload", "all", "sim_1core | sim_mcore | serve_warm | serve_churn | cluster_sweep | all")
	seed := flag.Uint64("seed", defaultSeed, "drives cell choice, request bodies, op order and the serve_churn tags")
	seconds := flag.Int("seconds", 20, "how long an end-to-end run takes, reference rows to last teardown (never less than one block per set-up)")
	trace := flag.Int("trace", 0, "1 runs the traced run (per-layer metrics, span files) instead of the end-to-end run")
	selfcheck := flag.Bool("selfcheck", false, "run two interleaved sets of every workload and check they agree within the bounds")
	flag.Parse()
	// One P. Client, servers, workers and the simulator's engine share this
	// process, and on a shared 2-vCPU host what a wake-up of the other vCPU
	// costs swings by the minute: with two Ps identical runs of serve_warm
	// read 0.81–1.16 ms, with one 0.67–0.74 ms (README, "One P").
	runtime.GOMAXPROCS(1)
	if err := realMain(*workloadName, *seed, *seconds, *trace, *selfcheck); err != nil {
		dumpProgramLog()
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(workloadName string, seed uint64, seconds, trace int, selfcheck bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	sz := fullSizing(seed, seconds, outDir)
	all, err := allWorkloads(seed, false, outDir)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Println(stamp(root, seed))
	ctx := context.Background()
	if selfcheck {
		return runSelfcheck(ctx, all, sz)
	}
	selected := all
	if workloadName != "all" {
		selected = nil
		for _, w := range all {
			if w.name() == workloadName {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
	}
	measure := runUntraced
	if trace == 1 {
		measure = runTraced
	}
	// Nothing of a workload is printed until its run is complete and every
	// metric is in: a harness failure leaves no partial result behind.
	for _, w := range selected {
		res, err := measure(ctx, w, sz)
		if err != nil {
			return err
		}
		if err := res.complete(); err != nil {
			return fmt.Errorf("%s: %w", w.name(), err)
		}
		line, err := res.jsonLine()
		if err != nil {
			return err
		}
		for _, note := range res.notes {
			fmt.Println("#", note)
		}
		fmt.Println(line)
	}
	return nil
}

// moduleRoot finds the repository checkout: the nearest directory at or above
// the working directory that holds go.mod. Scratch files go under its
// bench/out, so the benchmark writes nowhere else.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod at or above the working directory")
		}
		dir = parent
	}
}

// stamp describes what produced the numbers that follow. A checkout without
// git metadata (or a host without git) is reported as unknown, and a dirty
// tree as dirty: the stamp reports, it does not refuse.
func stamp(root string, seed uint64) string {
	commit, dirty := "unknown", false
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
			if out, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
				dirty = len(strings.TrimSpace(string(out))) > 0
			}
		}
	}
	return fmt.Sprintf("# bench: commit %s dirty=%v seed=%d %s nproc=%d GOMAXPROCS=%d model=%s; host time, one closed-loop client; simulator unvalidated against hardware (no reference data in the repository): no error figure",
		commit, dirty, seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), sim.ModelVersion)
}
