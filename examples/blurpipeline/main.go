// Blurpipeline: walk the paper's §4.3 optimization ladder for Gaussian blur
// on every simulated device — naive 2D convolution, unit-stride access,
// separable 1D kernels, memory-ordered passes, and row parallelism — and
// print the per-device speedup table the paper's Fig. 6 summarizes.
//
// The full 4-device × 5-variant ladder runs as ONE batch on the Runner:
// host goroutines work the cross-product in parallel on pooled machines, a
// progress callback streams completions, and the results come back in job
// order (bit-identical to running each job alone).
package main

import (
	"context"
	"fmt"
	"log"

	"riscvmem"
)

func main() {
	// A quarter-scale version of the paper's 2544×2027×3 image, F = 19.
	// Functional simulation of ~80M kernel taps per naive run; batching
	// across host cores is what keeps the wall-clock tolerable.
	cfg := riscvmem.BlurConfig{
		W: riscvmem.PaperImageW / 4, H: riscvmem.PaperImageH / 4,
		C: riscvmem.PaperImageC, F: riscvmem.PaperFilter,
	}

	var workloads []riscvmem.Workload
	for _, v := range riscvmem.BlurVariants() {
		c := cfg
		c.Variant = v
		workloads = append(workloads, riscvmem.BlurWorkload(c))
	}
	jobs := riscvmem.Jobs(riscvmem.Devices(), workloads)

	runner := riscvmem.NewRunner(riscvmem.RunnerOptions{
		OnProgress: func(p riscvmem.RunnerProgress) {
			fmt.Printf("\r%d/%d jobs done (%s on %s)        ",
				p.Done, p.Total, p.Job.Workload.Name(), p.Job.Device.Name)
		},
	})
	fmt.Printf("Gaussian blur, %d×%d×%d image, filter %d×%d, %d batched jobs:\n\n",
		cfg.W, cfg.H, cfg.C, cfg.F, cfg.F, len(jobs))
	results, err := runner.Run(context.Background(), jobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("\r                                                              \r")

	i := 0
	for _, dev := range riscvmem.Devices() {
		fmt.Println(dev)
		row := results[i : i+len(riscvmem.BlurVariants())]
		i += len(row)
		var naive riscvmem.Result
		for j, v := range riscvmem.BlurVariants() {
			if v == riscvmem.BlurNaive {
				naive = row[j]
			}
		}
		for _, r := range row {
			fmt.Printf("  %-18s %9.4fs  (%.2f× vs naive)\n", r.Workload, r.Seconds, r.SpeedupOver(naive))
		}
		fmt.Println()
	}
	fmt.Println("Expected shape (paper Fig. 6): Unit-stride helps everywhere except")
	fmt.Println("the bandwidth-starved VisionFive; Memory is the big win and enjoys")
	fmt.Println("compiler vectorization on Xeon/Pi; Parallel is channel-limited.")
}
