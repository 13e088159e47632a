// Customdevice: the library's devices are just parameter sets and its
// workloads are just values — this example upgrades the VisionFive into a
// hypothetical next-generation RISC-V board (bigger L2, four memory
// channels, out-of-order-ish cores), registers a custom pointer-chasing
// kernel alongside the built-ins, and batches the whole device × workload
// cross-product through one Runner. This is the workflow for "what would
// this kernel need from future RISC-V silicon?" questions.
package main

import (
	"context"
	"fmt"
	"log"

	"riscvmem"
	"riscvmem/internal/cache"
	"riscvmem/internal/hier"
	"riscvmem/internal/units"
)

// futureBoard derives an upgraded VisionFive: 1 MiB LRU L2, 4 DRAM channels
// at 4× the service rate, deeper miss overlap, and more MSHRs.
func futureBoard() riscvmem.Device {
	d := riscvmem.VisionFive()
	d.Name = "FutureRISCV"
	d.CPU = "hypothetical U74 successor"
	d.Cores = 4
	d.Mem.Cores = 4
	d.Mem.L2 = &hier.Level{
		Cache: cache.Config{Name: "L2", Size: 1 * units.MiB, Ways: 16,
			LineSize: 64, Policy: cache.LRU},
		HitCycles: 20, Shared: true,
	}
	d.Mem.DRAM.Channels = 4
	d.Mem.DRAM.BytesPerCycle = 2.0
	d.Mem.MissOverlap = 0.5 // a modest out-of-order window
	d.Mem.MaxInflight = 12
	return d
}

// pointerChase is a custom kernel registered as a first-class workload:
// dependent-load latency over an 8 MiB array at a prime stride that defeats
// the prefetcher and the caches — the microbenchmark the presets' DRAM
// latencies were sanity-checked against. Result.Cycles is the total chase
// time; Seconds follows from the device clock.
func pointerChase(ctx context.Context, m *riscvmem.Machine) (riscvmem.Result, error) {
	const elems = 1 << 20
	const loads = 1 << 15
	arr, err := m.NewF64(elems)
	if err != nil {
		return riscvmem.Result{}, err
	}
	const stride = 8209 // prime
	res := m.RunSeq(func(c *riscvmem.Core) {
		idx := 0
		for i := 0; i < loads; i++ {
			arr.Load(c, idx)
			idx = (idx + stride) % elems
		}
	})
	return riscvmem.Result{
		Cycles:  res.Cycles,
		Seconds: res.Seconds(m.Spec()),
		Bytes:   8 * loads,
	}, nil
}

// Custom kernels register next to the built-ins, from an init block, and
// are addressable by name from then on.
func init() { riscvmem.MustRegister(riscvmem.WorkloadFunc("chase/8MiB", pointerChase)) }

func main() {
	base := riscvmem.VisionFive()
	future := futureBoard()
	if err := future.Validate(); err != nil {
		log.Fatal(err)
	}
	devices := []riscvmem.Device{base, future}

	const n = 1024
	var workloads []riscvmem.Workload
	for _, v := range riscvmem.TransposeVariants() {
		workloads = append(workloads,
			riscvmem.TransposeWorkload(riscvmem.TransposeConfig{N: n, Variant: v}))
	}
	chase, err := riscvmem.WorkloadByName("chase/8MiB")
	if err != nil {
		log.Fatal(err)
	}
	workloads = append(workloads, chase)

	// One batch over the full cross-product: 2 devices × 6 workloads.
	runner := riscvmem.NewRunner(riscvmem.RunnerOptions{})
	results, err := runner.Run(context.Background(), riscvmem.Jobs(devices, workloads))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("In-place transposition of a %d×%d double matrix, plus a custom\n", n, n)
	fmt.Printf("pointer-chase workload, batched over %d jobs:\n\n", len(results))
	i := 0
	for _, dev := range devices {
		fmt.Println(dev)
		naive := results[i]
		for range riscvmem.TransposeVariants() {
			r := results[i]
			i++
			fmt.Printf("  %-26s %.4fs  (%.2f× vs naive)\n",
				r.Workload, r.Seconds, r.SpeedupOver(naive))
		}
		r := results[i]
		i++
		fmt.Printf("  %-26s %.1f cycles/load\n", r.Workload, r.Cycles/(1<<15))
		fmt.Println()
	}
}
