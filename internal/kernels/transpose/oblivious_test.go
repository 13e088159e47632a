package transpose

import (
	"testing"

	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
)

func TestCacheObliviousCorrect(t *testing.T) {
	for _, spec := range machine.All() {
		// Both power-of-two and the grid-divisible-but-odd shape.
		for _, n := range []int{64, 256} {
			if _, err := RunOn(sim.MustNew(spec), Config{N: n, Variant: CacheOblivious, Verify: true}); err != nil {
				t.Errorf("%s n=%d: %v", spec.Name, n, err)
			}
		}
	}
}

func TestCacheObliviousBeatsNaive(t *testing.T) {
	const n = 1024
	for _, spec := range []machine.Spec{machine.MangoPiD1(), machine.XeonServer()} {
		naive, err := RunOn(sim.MustNew(spec), Config{N: n, Variant: Naive})
		if err != nil {
			t.Fatal(err)
		}
		obl, err := RunOn(sim.MustNew(spec), Config{N: n, Variant: CacheOblivious})
		if err != nil {
			t.Fatal(err)
		}
		if obl.Seconds >= naive.Seconds {
			t.Errorf("%s: oblivious (%v) not faster than naive (%v)",
				spec.Name, obl.Seconds, naive.Seconds)
		}
	}
}

func TestCacheObliviousCompetitiveWithBlocking(t *testing.T) {
	// The cache-oblivious claim: within ~2.5× of the hand-tuned blocked
	// version without any tuning knob.
	const n = 1024
	blk, err := RunOn(sim.MustNew(machine.VisionFive()), Config{N: n, Variant: Blocking})
	if err != nil {
		t.Fatal(err)
	}
	obl, err := RunOn(sim.MustNew(machine.VisionFive()), Config{N: n, Variant: CacheOblivious})
	if err != nil {
		t.Fatal(err)
	}
	if obl.Seconds > 2.5*blk.Seconds {
		t.Errorf("oblivious %vs vs blocked %vs — more than 2.5× off", obl.Seconds, blk.Seconds)
	}
}

func TestCacheObliviousName(t *testing.T) {
	if CacheOblivious.String() != "Cache_oblivious" {
		t.Errorf("name = %q", CacheOblivious.String())
	}
	for _, v := range Variants() {
		if v == CacheOblivious {
			t.Error("extension variant leaked into the paper's figure list")
		}
	}
}
