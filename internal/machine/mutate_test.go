package machine

import (
	"testing"

	"riscvmem/internal/cache"
	"riscvmem/internal/units"
)

func TestCloneIsDeep(t *testing.T) {
	base := XeonServer()
	c := base.Clone()
	c.Mem.L2.Cache.Size *= 2
	c.Mem.L3.Cache.Size *= 2
	c.Mem.JTLB.Entries = 1
	c.Mem.Prefetch.MaxDistance = 999
	if base.Mem.L2.Cache.Size != XeonServer().Mem.L2.Cache.Size ||
		base.Mem.L3.Cache.Size != XeonServer().Mem.L3.Cache.Size ||
		base.Mem.JTLB.Entries != XeonServer().Mem.JTLB.Entries ||
		base.Mem.Prefetch.MaxDistance != XeonServer().Mem.Prefetch.MaxDistance {
		t.Error("mutating a clone changed the original spec")
	}
	if base.Identity() != base.Clone().Identity() {
		t.Error("Clone perturbed identity-relevant state")
	}
}

func TestRenamed(t *testing.T) {
	s := MangoPiD1().Renamed("MangoPi-L2")
	if s.Name != "MangoPi-L2" {
		t.Fatalf("Name = %q", s.Name)
	}
	if s.Identity() == MangoPiD1().Identity() {
		t.Error("renamed spec shares the base identity")
	}
	// Everything but the name is untouched.
	s.Name = "MangoPi"
	if s.Identity() != MangoPiD1().Identity() {
		t.Error("Renamed changed more than the name")
	}
}

// TestMutationHelpersValidateAndDistinguish pins the contract every sweep
// axis relies on: each helper yields a spec that (a) still validates, (b) has
// an identity distinct from its base even though the Name is unchanged — so
// the pooled runner and the result cache can never hand a mutated cell the
// base cell's machines or results.
func TestMutationHelpersValidateAndDistinguish(t *testing.T) {
	mutations := map[string]func(Spec) Spec{
		"WithL2":               func(s Spec) Spec { return s.WithL2(512 * units.KiB) },
		"WithoutL2":            func(s Spec) Spec { return s.WithoutL2() },
		"WithMaxInflight":      func(s Spec) Spec { return s.WithMaxInflight(3) },
		"WithMissOverlap":      func(s Spec) Spec { return s.WithMissOverlap(0.33) },
		"WithDRAMChannels":     func(s Spec) Spec { return s.WithDRAMChannels(16) },
		"WithDRAMLatency":      func(s Spec) Spec { return s.WithDRAMLatency(555) },
		"WithL1Ways":           func(s Spec) Spec { return s.WithL1Ways(s.Mem.L1.Ways * 2) },
		"WithPolicy":           func(s Spec) Spec { return s.WithPolicy(cache.FIFO) },
		"WithPrefetchDistance": func(s Spec) Spec { return s.WithPrefetchDistance(64) },
		"WithPrefetchRamp":     func(s Spec) Spec { return s.WithPrefetchRamp(!s.Mem.Prefetch.Ramp) },
		"WithoutPrefetcher":    func(s Spec) Spec { return s.WithoutPrefetcher() },
	}
	for _, base := range All() {
		for name, mutate := range mutations {
			if name == "WithoutL2" && base.Mem.L2 == nil {
				continue // dropping an absent L2 is the identity mutation
			}
			got := mutate(base)
			if err := got.Validate(); err != nil {
				t.Errorf("%s on %s: invalid spec: %v", name, base.Name, err)
			}
			if got.Identity() == base.Identity() {
				t.Errorf("%s on %s: identity unchanged", name, base.Name)
			}
			if got.Name != base.Name {
				t.Errorf("%s on %s: helper changed the Name to %q", name, base.Name, got.Name)
			}
			if err := base.Validate(); err != nil {
				t.Errorf("%s on %s: mutated the base spec: %v", name, base.Name, err)
			}
		}
	}
}

func TestWithL2OnDeviceWithoutL2(t *testing.T) {
	s := MangoPiD1().WithL2(128 * units.KiB)
	if s.Mem.L2 == nil {
		t.Fatal("WithL2 did not add an L2")
	}
	if s.Mem.L2.Cache.Size != 128*units.KiB || !s.Mem.L2.Shared {
		t.Errorf("L2 = %+v", s.Mem.L2)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if MangoPiD1().Mem.L2 != nil {
		t.Error("WithL2 mutated the preset")
	}
}

func TestWithL2RefitsWays(t *testing.T) {
	// Xeon's 20-way L2 cannot tile 128 KiB into a power-of-two set count;
	// the helper must re-fit the associativity rather than hand Validate a
	// broken spec.
	s := XeonServer().WithL2(128 * units.KiB)
	if err := s.Validate(); err != nil {
		t.Fatalf("re-fit failed: %v", err)
	}
	if s.Mem.L2.Cache.Size != 128*units.KiB {
		t.Errorf("size = %d", s.Mem.L2.Cache.Size)
	}
	// The original 20 ways must survive when they still fit (1.25 MiB does).
	if keep := XeonServer().WithL2(1280 * 2 * units.KiB); keep.Mem.L2.Cache.Ways != 20 {
		t.Errorf("ways not kept on a compatible resize: %d", keep.Mem.L2.Cache.Ways)
	}
}

func TestWithoutL2DropsL3(t *testing.T) {
	s := XeonServer().WithoutL2()
	if s.Mem.L2 != nil || s.Mem.L3 != nil {
		t.Error("WithoutL2 left outer levels behind")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchHelpersRequireDeclarativeConfig: the prefetcher helpers
// rewrite Mem.Prefetch and leave a spec without one unchanged.
func TestPrefetchHelpersRequireDeclarativeConfig(t *testing.T) {
	none := MangoPiD1().WithoutPrefetcher()
	if got := none.WithPrefetchDistance(64); got.Identity() != none.Identity() {
		t.Error("WithPrefetchDistance changed a spec without a prefetcher")
	}
	if got := none.WithPrefetchRamp(true); got.Identity() != none.Identity() {
		t.Error("WithPrefetchRamp changed a spec without a prefetcher")
	}
	if got := MangoPiD1().WithPrefetchDistance(1); got.Mem.Prefetch.InitDistance != 1 {
		t.Errorf("InitDistance not clamped: %d", got.Mem.Prefetch.InitDistance)
	}
	if MangoPiD1().WithPrefetchDistance(2).Identity() == MangoPiD1().WithPrefetchDistance(32).Identity() {
		t.Error("prefetch configs with different distances share an identity")
	}
}
