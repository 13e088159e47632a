package core

import (
	"math"
	"testing"

	"riscvmem/internal/kernels/blur"
	"riscvmem/internal/kernels/stream"
	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
)

// TestGoldenCycleCounts pins exact simulated cycle counts, bit for bit, for
// one fixed workload per kernel on every device. The simulator is
// deterministic by construction, and its clock rounds every product before
// adding it (scripts/nofma.sh), so these values are stable across hosts and
// Go versions; the test exists to make *model* changes deliberate — if you
// change a latency, policy, or code path on purpose, regenerate the table
// and say so in the commit. The Xeon STREAM TRIAD row is the cell most
// sensitive to a fused multiply-add in the miss charge: fusing it moves the
// last bits.
func TestGoldenCycleCounts(t *testing.T) {
	kernels := map[string]func(*sim.Machine) (float64, error){
		"transpose Blocking N=256": func(m *sim.Machine) (float64, error) {
			r, err := transpose.RunOn(m, transpose.Config{N: 256, Variant: transpose.Blocking})
			return r.Cycles, err
		},
		"blur 1D_kernels 48×40×3 F=9": func(m *sim.Machine) (float64, error) {
			r, err := blur.RunOn(m, blur.Config{W: 48, H: 40, C: 3, F: 9, Variant: blur.OneD})
			return r.Cycles, err
		},
		"stream TRIAD 2^16": func(m *sim.Machine) (float64, error) {
			r, err := stream.RunOn(m, stream.Config{Test: stream.Triad, Elems: 1 << 16})
			return r.BestCycles, err
		},
	}
	golden := []struct {
		device, kernel string
		cycles         float64
	}{
		{"Xeon", "transpose Blocking N=256", 85479.82016163543},
		{"Xeon", "blur 1D_kernels 48×40×3 F=9", 159827.84801428716},
		{"Xeon", "stream TRIAD 2^16", 78336.19184559619},
		{"RaspberryPi4", "transpose Blocking N=256", 295038.1882600076},
		{"RaspberryPi4", "blur 1D_kernels 48×40×3 F=9", 196642.30531002642},
		{"VisionFive", "transpose Blocking N=256", 2302536},
		{"VisionFive", "blur 1D_kernels 48×40×3 F=9", 383920},
		{"MangoPi", "transpose Blocking N=256", 6303370},
		{"MangoPi", "blur 1D_kernels 48×40×3 F=9", 488818},
	}
	for _, g := range golden {
		spec, err := machine.ByName(g.device)
		if err != nil {
			t.Fatal(err)
		}
		got, err := kernels[g.kernel](sim.MustNew(spec))
		if err != nil {
			t.Fatalf("%s %s: %v", g.device, g.kernel, err)
		}
		if math.Float64bits(got) != math.Float64bits(g.cycles) {
			t.Errorf("%s %s: %v cycles, golden %v", g.device, g.kernel, got, g.cycles)
		}
	}
}
