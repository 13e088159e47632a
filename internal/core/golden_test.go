package core

import (
	"math"
	"testing"

	"riscvmem/internal/kernels/blur"
	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
)

// TestGoldenCycleCounts pins exact simulated cycle counts for one fixed
// workload per kernel on every device. The simulator is deterministic by
// construction, so these values are stable across hosts and Go versions;
// the test exists to make *model* changes deliberate — if you change a
// latency, policy, or code path on purpose, regenerate the table and say so
// in the commit.
func TestGoldenCycleCounts(t *testing.T) {
	golden := []struct {
		device   string
		trCycles float64 // transpose Blocking, N=256
		blCycles float64 // blur 1D_kernels, 48×40×3, F=9
	}{
		{"Xeon", 85479.8202, 159827.8480},
		{"RaspberryPi4", 295038.1883, 196642.3053},
		{"VisionFive", 2302536.0000, 383920.0000},
		{"MangoPi", 6303370.0000, 488818.0000},
	}
	for _, g := range golden {
		spec, err := machine.ByName(g.device)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := transpose.RunOn(sim.MustNew(spec), transpose.Config{N: 256, Variant: transpose.Blocking})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tr.Cycles-g.trCycles) > 0.01 {
			t.Errorf("%s transpose: %.4f cycles, golden %.4f", g.device, tr.Cycles, g.trCycles)
		}
		bl, err := blur.RunOn(sim.MustNew(spec), blur.Config{W: 48, H: 40, C: 3, F: 9, Variant: blur.OneD})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(bl.Cycles-g.blCycles) > 0.01 {
			t.Errorf("%s blur: %.4f cycles, golden %.4f", g.device, bl.Cycles, g.blCycles)
		}
	}
}
