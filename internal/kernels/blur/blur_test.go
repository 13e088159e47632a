package blur

import (
	"math"
	"testing"

	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
)

func TestVariantMetadata(t *testing.T) {
	if len(Variants()) != 5 {
		t.Fatal("the paper presents five implementations")
	}
	names := []string{"Naive", "Unit-stride", "1D_kernels", "Memory", "Parallel"}
	for i, v := range Variants() {
		if v.String() != names[i] {
			t.Errorf("variant %d = %q, want %q", i, v.String(), names[i])
		}
	}
}

func TestKernel1DNormalizedSymmetric(t *testing.T) {
	for _, f := range []int{3, 5, 19} {
		k := Kernel1D(f)
		if len(k) != f {
			t.Fatalf("F=%d: len %d", f, len(k))
		}
		var sum float64
		for i := range k {
			sum += float64(k[i])
			if k[i] != k[f-1-i] {
				t.Errorf("F=%d: asymmetric at %d", f, i)
			}
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("F=%d: sum %v", f, sum)
		}
		// Peak at the center.
		if k[f/2] <= k[0] {
			t.Errorf("F=%d: center %v not above edge %v", f, k[f/2], k[0])
		}
	}
}

func TestKernel2DIsOuterProduct(t *testing.T) {
	k1 := Kernel1D(5)
	k2 := Kernel2D(k1)
	var sum float64
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if k2[i*5+j] != k1[i]*k1[j] {
				t.Fatalf("k2[%d,%d] != k1[i]*k1[j]", i, j)
			}
			sum += float64(k2[i*5+j])
		}
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("2D kernel sum %v", sum)
	}
}

func TestRejectsBadConfig(t *testing.T) {
	d1 := machine.MangoPiD1()
	bad := []Config{
		{W: 0, H: 10, C: 3, F: 3},
		{W: 10, H: 10, C: 3, F: 4},  // even filter
		{W: 10, H: 10, C: 3, F: 11}, // filter ≥ image
		{W: 10, H: 10, C: 3, F: -1},
	}
	for _, cfg := range bad {
		cfg.Variant = Naive
		if _, err := RunOn(sim.MustNew(d1), cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := RunOn(sim.MustNew(d1), Config{W: 16, H: 16, C: 1, F: 3, Variant: Variant(42)}); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestAllVariantsMatchReference(t *testing.T) {
	// Small color image, every variant, two very different devices.
	for _, spec := range []machine.Spec{machine.MangoPiD1(), machine.XeonServer()} {
		for _, v := range Variants() {
			res, err := RunOn(sim.MustNew(spec), Config{W: 24, H: 20, C: 3, F: 5, Variant: v, Verify: true})
			if err != nil {
				t.Errorf("%s/%v: %v", spec.Name, v, err)
				continue
			}
			if res.Cycles <= 0 {
				t.Errorf("%s/%v: no time elapsed", spec.Name, v)
			}
		}
	}
}

func TestSingleChannelWorks(t *testing.T) {
	for _, v := range Variants() {
		if _, err := RunOn(sim.MustNew(machine.VisionFive()), Config{W: 20, H: 18, C: 1, F: 3, Variant: v, Verify: true}); err != nil {
			t.Errorf("%v on 1-channel: %v", v, err)
		}
	}
}

func TestOneDFasterThanNaive(t *testing.T) {
	// O(F) beats O(F²) everywhere once F is non-trivial.
	cfg := Config{W: 64, H: 48, C: 3, F: 9}
	for _, spec := range machine.All() {
		n := cfg
		n.Variant = Naive
		rn, err := RunOn(sim.MustNew(spec), n)
		if err != nil {
			t.Fatal(err)
		}
		o := cfg
		o.Variant = OneD
		ro, err := RunOn(sim.MustNew(spec), o)
		if err != nil {
			t.Fatal(err)
		}
		if ro.Seconds >= rn.Seconds {
			t.Errorf("%s: 1D_kernels (%v) not faster than Naive (%v)", spec.Name, ro.Seconds, rn.Seconds)
		}
	}
}

func TestMemoryBeatsOneD(t *testing.T) {
	// Needs paper-like proportions to show: F = 19 exceeds the D1's
	// 10-entry uTLB when the per-pixel vertical walk cycles through F rows
	// spanning F pages (rows ≥ one page wide), which the row-streaming
	// Memory order avoids.
	cfg := Config{W: 384, H: 44, C: 3, F: 19}
	for _, spec := range []machine.Spec{machine.XeonServer(), machine.MangoPiD1()} {
		o := cfg
		o.Variant = OneD
		ro, err := RunOn(sim.MustNew(spec), o)
		if err != nil {
			t.Fatal(err)
		}
		mo := cfg
		mo.Variant = Memory
		rm, err := RunOn(sim.MustNew(spec), mo)
		if err != nil {
			t.Fatal(err)
		}
		if rm.Seconds >= ro.Seconds {
			t.Errorf("%s: Memory (%v) not faster than 1D_kernels (%v)", spec.Name, rm.Seconds, ro.Seconds)
		}
	}
}

func TestXeonMemoryGetsVectorizationBoost(t *testing.T) {
	// §4.3: "the compiler has been able to vectorize the code with the loop
	// order used in the Memory implementation" — a ~19× total speedup on
	// the Xeon. Require the Xeon's Memory-over-Naive speedup to dwarf the
	// Mango Pi's (scalar toolchain) on the same image.
	cfg := Config{W: 64, H: 48, C: 3, F: 9}
	speedup := func(spec machine.Spec) float64 {
		n := cfg
		n.Variant = Naive
		rn, err := RunOn(sim.MustNew(spec), n)
		if err != nil {
			t.Fatal(err)
		}
		m := cfg
		m.Variant = Memory
		rm, err := RunOn(sim.MustNew(spec), m)
		if err != nil {
			t.Fatal(err)
		}
		return rn.Seconds / rm.Seconds
	}
	xe, d1 := speedup(machine.XeonServer()), speedup(machine.MangoPiD1())
	if xe <= d1*1.5 {
		t.Fatalf("Xeon Memory speedup %.1f× not clearly above MangoPi's %.1f×", xe, d1)
	}
}

func TestParallelHelpsOnMultiCore(t *testing.T) {
	cfg := Config{W: 96, H: 64, C: 3, F: 9}
	m := cfg
	m.Variant = Memory
	rm, err := RunOn(sim.MustNew(machine.XeonServer()), m)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg
	p.Variant = Parallel
	rp, err := RunOn(sim.MustNew(machine.XeonServer()), p)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Seconds >= rm.Seconds {
		t.Fatalf("Parallel (%v) not faster than Memory (%v) on 10 cores", rp.Seconds, rm.Seconds)
	}
}

func TestBytesMoved(t *testing.T) {
	if got := BytesMoved(2544, 2027, 3); got != 16*2544*2027*3 {
		t.Fatalf("BytesMoved = %d", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		r, err := RunOn(sim.MustNew(machine.RaspberryPi4()), Config{W: 32, H: 24, C: 3, F: 5, Variant: Parallel})
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic blur: %v vs %v", a, b)
	}
}

func TestReferenceLinearity(t *testing.T) {
	// Blur is linear: Reference(2·src) = 2·Reference(src).
	const w, h, ch, f = 12, 10, 1, 3
	src := make([]float32, w*h*ch)
	state := uint32(7)
	for i := range src {
		state = state*1664525 + 1013904223
		src[i] = float32(state>>8) / float32(1<<24)
	}
	double := make([]float32, len(src))
	for i := range src {
		double[i] = 2 * src[i]
	}
	k2 := Kernel2D(Kernel1D(f))
	a, b := Reference(src, k2, w, h, ch, f), Reference(double, k2, w, h, ch, f)
	for i := range a {
		if math.Abs(float64(b[i]-2*a[i])) > 1e-5 {
			t.Fatalf("linearity violated at %d: %v vs %v", i, b[i], 2*a[i])
		}
	}
}
