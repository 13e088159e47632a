package stream

import (
	"testing"

	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
)

func TestTestMetadata(t *testing.T) {
	if len(Tests()) != 4 {
		t.Fatal("STREAM has four tests")
	}
	cases := []struct {
		tst   Test
		name  string
		bytes int64
		flops int
	}{
		{Copy, "COPY", 16, 0},
		{Scale, "SCALE", 16, 1},
		{Sum, "SUM", 24, 1},
		{Triad, "TRIAD", 24, 2},
	}
	for _, c := range cases {
		if c.tst.String() != c.name {
			t.Errorf("%v name = %q", c.tst, c.tst.String())
		}
		if c.tst.BytesPerIter() != c.bytes {
			t.Errorf("%v bytes = %d, want %d", c.tst, c.tst.BytesPerIter(), c.bytes)
		}
		if c.tst.FlopsPerIter() != c.flops {
			t.Errorf("%v flops = %d, want %d", c.tst, c.tst.FlopsPerIter(), c.flops)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := RunOn(sim.MustNew(machine.MangoPiD1()), Config{Test: Copy, Elems: 0}); err == nil {
		t.Fatal("zero-size run accepted")
	}
}

func TestRunComputesAndMeasures(t *testing.T) {
	for _, tst := range Tests() {
		meas, err := RunOn(sim.MustNew(machine.MangoPiD1()), Config{Test: tst, Elems: 2048, Reps: 2})
		if err != nil {
			t.Fatalf("%v: %v", tst, err)
		}
		if meas.Best <= 0 {
			t.Errorf("%v: non-positive bandwidth", tst)
		}
		if len(meas.PerRep) != 2 {
			t.Errorf("%v: %d reps recorded", tst, len(meas.PerRep))
		}
	}
}

func TestScaleByMultipliesBandwidth(t *testing.T) {
	base, err := RunOn(sim.MustNew(machine.MangoPiD1()), Config{Test: Copy, Elems: 512, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	x4, err := RunOn(sim.MustNew(machine.MangoPiD1()), Config{Test: Copy, Elems: 512, Reps: 1, ScaleBy: 4})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(x4.Best) / float64(base.Best)
	if ratio < 3.99 || ratio > 4.01 {
		t.Fatalf("ScaleBy=4 ratio %v", ratio)
	}
}

func TestL1FasterThanDRAM(t *testing.T) {
	// The level asymmetry behind Fig. 1: small (cache-resident) arrays must
	// show much higher bandwidth than DRAM-sized ones on every device.
	for _, spec := range machine.All() {
		small, err := RunOn(sim.MustNew(spec), Config{Test: Copy, Elems: 256, Reps: 2})
		if err != nil {
			t.Fatalf("%s small: %v", spec.Name, err)
		}
		big, err := RunOn(sim.MustNew(spec), Config{Test: Copy, Elems: 1 << 16, Cores: 1, Reps: 1})
		if err != nil {
			t.Fatalf("%s big: %v", spec.Name, err)
		}
		if float64(small.Best) < 1.5*float64(big.Best) {
			t.Errorf("%s: L1-sized %.2f GB/s not clearly above DRAM-sized %.2f GB/s",
				spec.Name, small.Best.GBps(), big.Best.GBps())
		}
	}
}

func TestDRAMBandwidthOrderingAcrossDevices(t *testing.T) {
	// Fig. 1's headline: Xeon ≫ Pi4 ≫ the RISC-V boards at DRAM, and the
	// VisionFive is the slowest of all.
	bw := map[string]float64{}
	for _, spec := range machine.All() {
		lv := Levels(spec, 8)
		dram := lv[len(lv)-1]
		meas, err := RunOn(sim.MustNew(spec), Config{Test: Triad, Elems: dram.Elems, Cores: dram.Cores, Reps: 1, ScaleBy: dram.ScaleBy})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		bw[spec.Name] = meas.Best.GBps()
	}
	if !(bw["Xeon"] > bw["RaspberryPi4"] && bw["RaspberryPi4"] > bw["MangoPi"] && bw["MangoPi"] > bw["VisionFive"]) {
		t.Fatalf("DRAM TRIAD ordering wrong: %v", bw)
	}
}

func TestLevelsStructure(t *testing.T) {
	for _, spec := range machine.All() {
		lv := Levels(spec, 1)
		if lv[0].Name != "L1" || lv[len(lv)-1].Name != "DRAM" {
			t.Errorf("%s: levels %v", spec.Name, lv)
		}
		// Monotonically growing arrays.
		for i := 1; i < len(lv); i++ {
			if lv[i].Elems <= lv[i-1].Elems {
				t.Errorf("%s: level %s (%d elems) not larger than %s (%d)",
					spec.Name, lv[i].Name, lv[i].Elems, lv[i-1].Name, lv[i-1].Elems)
			}
		}
		// L1 is private: sequential × cores.
		if lv[0].Cores != 1 || lv[0].ScaleBy != spec.Cores {
			t.Errorf("%s: L1 level = %+v", spec.Name, lv[0])
		}
	}
	// Device-specific shapes.
	if n := len(Levels(machine.MangoPiD1(), 1)); n != 2 { // L1 + DRAM only
		t.Errorf("MangoPi levels = %d, want 2 (no L2!)", n)
	}
	if n := len(Levels(machine.XeonServer(), 1)); n != 4 { // L1+L2+L3+DRAM
		t.Errorf("Xeon levels = %d, want 4", n)
	}
	// Xeon's private L2 runs sequentially ×10.
	xl := Levels(machine.XeonServer(), 1)
	if xl[1].Cores != 1 || xl[1].ScaleBy != 10 {
		t.Errorf("Xeon L2 level = %+v, want sequential ×10", xl[1])
	}
	// VisionFive's shared L2 runs with both cores.
	vl := Levels(machine.VisionFive(), 1)
	if vl[1].Cores != 2 || vl[1].ScaleBy != 1 {
		t.Errorf("VisionFive L2 level = %+v, want parallel ×1", vl[1])
	}
	// Scale shrinks only DRAM.
	a, b := Levels(machine.MangoPiD1(), 1), Levels(machine.MangoPiD1(), 4)
	if a[0].Elems != b[0].Elems {
		t.Error("scale changed a cache level")
	}
	if b[1].Elems >= a[1].Elems {
		t.Error("scale did not shrink the DRAM level")
	}
}

func TestDeterministicBandwidth(t *testing.T) {
	run := func() float64 {
		m, err := RunOn(sim.MustNew(machine.VisionFive()), Config{Test: Triad, Elems: 4096, Cores: 2, Reps: 2})
		if err != nil {
			t.Fatal(err)
		}
		return float64(m.Best)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic STREAM: %v vs %v", a, b)
	}
}
