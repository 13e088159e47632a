package main

import (
	"context"
	"fmt"
	"math"
)

// selfcheckRuns is how many end-to-end runs each set holds per workload.
const selfcheckRuns = 3

// selfcheckTolerance is how closely two interleaved sets of runs of one
// binary must agree on every end-to-end metric: the 0.10 ISSUE 14 fixed. It
// is tighter than the regression bounds (metrics.go says why those are
// wider): interleaving cancels the host's drift, which a comparison of sets
// taken one after the other does not.
const selfcheckTolerance = 0.10

// runSelfcheck asks whether the benchmark can tell a change from no change:
// two sets of runs of the same binary, interleaved A B A B …, must agree on
// every workload × end-to-end metric within selfcheckTolerance, and two
// traced runs must agree exactly on every exact layer metric. A breach means
// a block is too short or a metric belongs among the layers — not that the
// tolerance should grow.
func runSelfcheck(ctx context.Context, all []workload, sz sizing) error {
	breaches := 0
	fmt.Printf("| workload | metric | median A | median B | rel. diff | tolerance | |\n|---|---|---|---|---|---|---|\n")
	for _, w := range all {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for r := 0; r < 2*selfcheckRuns; r++ {
			res, err := runUntraced(ctx, w, sz)
			if err != nil {
				return err
			}
			if res.failed > 0 {
				return fmt.Errorf("%s: %d of %d ops failed", w.name(), res.failed, res.attempted)
			}
			for name, v := range res.values {
				sets[r%2][name] = append(sets[r%2][name], v)
			}
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			diff := math.Abs(a-b) / a
			verdict := "ok"
			if diff > selfcheckTolerance {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %.3f | %.2f | %s |\n", w.name(), d.Name, a, b, diff, selfcheckTolerance, verdict)
		}
		var traced [2]*result
		for r := range traced {
			res, err := runTraced(ctx, w, sz)
			if err != nil {
				return err
			}
			traced[r] = res
		}
		unequal := 0
		for _, d := range perLayer {
			if d.Exact && traced[0].values[d.Name] != traced[1].values[d.Name] {
				fmt.Printf("| %s | %s | %v | %v | exact | 0 | BREACH |\n", w.name(), d.Name, traced[0].values[d.Name], traced[1].values[d.Name])
				unequal++
			}
		}
		breaches += unequal
		if unequal == 0 {
			fmt.Printf("| %s | exact layer metrics | equal | equal | 0 | 0 | ok |\n", w.name())
		}
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d breach(es)", breaches)
	}
	return nil
}
