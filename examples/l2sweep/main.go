// l2sweep answers the paper's most tempting counterfactual: what if the
// Mango Pi's Allwinner D1 — whose defining microarchitectural gap is having
// no L2 cache at all — had one?
//
// A declarative sweep crosses hypothetical L2 capacities with the MSHR
// count (the other bandwidth limiter the paper discusses) and runs the
// naive transposition plus STREAM TRIAD in every cell on the memoized
// runner, reporting each cell's speedup over the real, L2-less D1.
//
// The same sweep is then sent twice as data — a SweepRequest, the form
// cmd/simd serves on POST /v1/sweep — to an in-process Service. The second
// request simulates nothing: its cells are served from the service's
// shared result cache.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"riscvmem"
)

func main() {
	base := riscvmem.MangoPiD1()
	fmt.Printf("Base device: %s (no L2 — the paper's Fig. 1 discussion)\n\n", base)

	res, err := riscvmem.RunSweep(context.Background(), riscvmem.SweepConfig{
		Base: base,
		Axes: []riscvmem.SweepAxis{
			riscvmem.MustParseSweepAxis("l2=base,128KiB,1MiB"),
			riscvmem.MustParseSweepAxis("maxinflight=base,16"),
		},
		Workloads: []riscvmem.Workload{
			riscvmem.TransposeWorkload(riscvmem.TransposeConfig{
				N: 512, Variant: riscvmem.TransposeNaive}),
			riscvmem.StreamWorkload(riscvmem.StreamConfig{
				Test: riscvmem.StreamTriad, Elems: 1 << 16, Reps: 2}),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	tbl := res.Table()
	tbl.Render(os.Stdout)

	best := res.PerCell[0]
	for _, cr := range res.PerCell {
		if cr.Result.Workload == "transpose/Naive" && cr.Speedup > best.Speedup {
			best = cr
		}
	}
	fmt.Printf("\nBest transpose cell: %v — %.2f× the real D1.\n",
		best.Cell.Labels, best.Speedup)

	svc := riscvmem.NewService(riscvmem.ServiceOptions{})
	req := riscvmem.SweepRequest{
		Device: base.Name,
		Axes:   []string{"l2=base,128KiB,1MiB", "maxinflight=base,16"},
		Workloads: []riscvmem.WorkloadSpec{
			riscvmem.MustParseWorkloadSpec("transpose:variant=Naive,n=512"),
			riscvmem.MustParseWorkloadSpec("stream:test=TRIAD,elems=65536,reps=2"),
		},
	}
	fmt.Println("\nThe same sweep as a SweepRequest, sent twice to one Service:")
	for i := 1; i <= 2; i++ {
		resp, err := svc.Sweep(context.Background(), req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  request %d: %d rows, %d new simulations, %d cache hits\n",
			i, len(resp.Results), resp.Cache.RequestMisses, resp.Cache.RequestHits)
	}
}
