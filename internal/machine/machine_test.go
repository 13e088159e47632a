package machine

import (
	"reflect"
	"strings"
	"testing"

	"riscvmem/internal/cache"
	"riscvmem/internal/hier"
	"riscvmem/internal/units"
)

func TestAllPresetsValidate(t *testing.T) {
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestPresetCount(t *testing.T) {
	if got := len(All()); got != 4 {
		t.Fatalf("All() returned %d devices, want the paper's 4", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Xeon", "RaspberryPi4", "VisionFive", "MangoPi"} {
		s, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if s.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, s.Name)
		}
	}
	if _, err := ByName("Cray-1"); err == nil {
		t.Error("unknown device accepted")
	}
}

// TestByNameErrorPaths pins the failure behaviour cmd tools and the public
// DeviceByName facade rely on: unknown, empty, case-mismatched and
// whitespace-polluted names must all fail, the returned Spec must be zero
// (and in particular not Validate), and the error must name the valid
// presets so CLI users can self-correct.
func TestByNameErrorPaths(t *testing.T) {
	bad := []string{"", "xeon", "XEON", " Xeon", "Xeon ", "mangopi", "MangoPiD1", "Pi4", "device"}
	for _, name := range bad {
		s, err := ByName(name)
		if err == nil {
			t.Errorf("ByName(%q) unexpectedly succeeded with %q", name, s.Name)
			continue
		}
		if s.Name != "" || s.Cores != 0 {
			t.Errorf("ByName(%q) returned non-zero Spec %q alongside error", name, s.Name)
		}
		if s.Validate() == nil {
			t.Errorf("ByName(%q) error Spec validates", name)
		}
		if !strings.Contains(err.Error(), "unknown device") {
			t.Errorf("ByName(%q) error %q lacks the unknown-device marker", name, err)
		}
		for _, valid := range []string{"Xeon", "RaspberryPi4", "VisionFive", "MangoPi"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("ByName(%q) error %q does not list preset %s", name, err, valid)
			}
		}
	}
}

// TestIdentityCoversAllSpecFields is the drift guard for Spec.Identity: it
// pins the exact field sets of Spec and hier.Config that Identity mirrors
// into its comparable projection. Adding a field to either struct fails
// this test until the new field is (a) added to the identity struct in
// machine.go and (b) appended to the pinned list here — which is the
// reminder the pooled runner needs, since a field missing from Identity
// would let devices differing only in that field share pooled machines.
func TestIdentityCoversAllSpecFields(t *testing.T) {
	check := func(typ reflect.Type, want []string) {
		t.Helper()
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s fields changed:\n got %v\nwant %v\nupdate Spec.Identity and this pin together",
				typ, got, want)
		}
	}
	check(reflect.TypeOf(Spec{}), []string{
		"Name", "CPU", "ISA", "Cores", "FreqGHz", "RAMBytes",
		"IssueWidth", "FlopsPerCycle", "AutoVecBytes", "Mem",
	})
	check(reflect.TypeOf(hier.Config{}), []string{
		"Cores", "LineSize", "L1", "L1HitCycles", "L2", "L3",
		"UTLB", "JTLB", "JTLBPenalty", "WalkLevels", "WalkCycles",
		"DRAM", "MissOverlap", "NewPrefetcher", "Prefetch", "MaxInflight",
	})
	// The leaf config structs (cache/tlb/dram.Config, hier.Level) are
	// embedded in the identity by value, so new fields there participate
	// in pooling equality automatically — no pin needed.
}

// TestIdentityDistinguishesVariants spot-checks the projection: identical
// presets share an identity, any parameter tweak breaks it.
func TestIdentityDistinguishesVariants(t *testing.T) {
	if VisionFive().Identity() != VisionFive().Identity() {
		t.Fatal("identical presets have distinct identities")
	}
	mutations := map[string]func(*Spec){
		"clock":         func(s *Spec) { s.FreqGHz = 2.0 },
		"dram channels": func(s *Spec) { s.Mem.DRAM.Channels = 4 },
		"L2 size":       func(s *Spec) { s.Mem.L2.Cache.Size *= 2 },
		"drop L2":       func(s *Spec) { s.Mem.L2 = nil },
		"jtlb entries":  func(s *Spec) { s.Mem.JTLB.Entries = 64 },
		"miss overlap":  func(s *Spec) { s.Mem.MissOverlap = 0.5 },
		"no prefetch":   func(s *Spec) { s.Mem.Prefetch = nil },
		"pref distance": func(s *Spec) { s.Mem.Prefetch.MaxDistance *= 2 },
		"pref ramp":     func(s *Spec) { s.Mem.Prefetch.Ramp = !s.Mem.Prefetch.Ramp },
	}
	base := VisionFive().Identity()
	for name, mutate := range mutations {
		s := VisionFive()
		if s.Mem.L2 != nil { // deep-copy the pointed-to levels before mutating
			l2 := *s.Mem.L2
			s.Mem.L2 = &l2
		}
		if s.Mem.JTLB != nil {
			j := *s.Mem.JTLB
			s.Mem.JTLB = &j
		}
		mutate(&s)
		if s.Identity() == base {
			t.Errorf("mutation %q does not change the identity", name)
		}
	}
}

// The §3.1 facts the experiments depend on.
func TestPaperFacts(t *testing.T) {
	d1 := MangoPiD1()
	if d1.Cores != 1 {
		t.Error("D1 must be single-core (why Parallel gains nothing, Fig. 2)")
	}
	if d1.Mem.L2 != nil {
		t.Error("D1 must have no L2 (Fig. 1/7 discussion)")
	}
	if d1.RAMBytes != 1*units.GiB {
		t.Error("D1 must have 1 GiB RAM (16384² skipped, Fig. 2)")
	}

	vf := VisionFive()
	if vf.Cores != 2 {
		t.Error("VisionFive has two U74 cores")
	}
	if vf.Mem.DRAM.Channels != 2 {
		t.Error("VisionFive models two memory channels (Fig. 3 discussion)")
	}
	if vf.Mem.L2 == nil || !vf.Mem.L2.Shared {
		t.Error("VisionFive L2 must exist and be shared")
	}

	pi := RaspberryPi4()
	if pi.Cores != 4 || pi.FreqGHz != 1.5 {
		t.Error("Pi 4: 4 cores at 1.5 GHz")
	}

	xeon := XeonServer()
	if xeon.Cores != 10 {
		t.Error("Xeon: 10 cores of the first socket (NUMA avoided)")
	}
	if xeon.Mem.L3 == nil || !xeon.Mem.L3.Shared {
		t.Error("Xeon needs a shared L3")
	}
	if xeon.Mem.L2.Shared {
		t.Error("Xeon L2 is private per core")
	}
	if xeon.AutoVecBytes != 64 {
		t.Error("Xeon vectorizes at AVX-512 width (the 19× blur result)")
	}
	for _, s := range []Spec{d1, vf} {
		if s.AutoVecBytes != 0 {
			t.Errorf("%s: paper's GCC emitted scalar RISC-V code", s.Name)
		}
		if s.Mem.MissOverlap != 1.0 {
			t.Errorf("%s: in-order cores expose full miss latency", s.Name)
		}
	}
}

// Fig. 1 ordering: raw DRAM bandwidth Xeon ≫ Pi4 ≫ D1 > VisionFive.
func TestDRAMBandwidthOrdering(t *testing.T) {
	bw := func(s Spec) float64 { return s.PeakDRAMBandwidth().GBps() }
	xeon, pi, vf, d1 := bw(XeonServer()), bw(RaspberryPi4()), bw(VisionFive()), bw(MangoPiD1())
	if !(xeon > pi && pi > d1 && d1 > vf) {
		t.Errorf("bandwidth ordering violated: xeon=%.1f pi=%.1f d1=%.1f vf=%.1f", xeon, pi, d1, vf)
	}
	if vf > 1.5 { // the starved channel
		t.Errorf("VisionFive peak %.2f GB/s too high for the paper's 'low bandwidth of DRAM'", vf)
	}
}

func TestFits(t *testing.T) {
	const m16384 = 16384 * 16384 * 8 // 2 GiB matrix
	if MangoPiD1().Fits(m16384) {
		t.Error("16384² must not fit on the 1 GiB Mango Pi (Fig. 2 bottom panel)")
	}
	if !VisionFive().Fits(m16384) {
		t.Error("16384² must fit on the 8 GiB VisionFive")
	}
	const m8192 = 8192 * 8192 * 8 // 512 MiB
	if !MangoPiD1().Fits(m8192) {
		t.Error("8192² must fit on the Mango Pi (Fig. 2 top panel)")
	}
}

func TestValidateRejectsBrokenSpecs(t *testing.T) {
	s := MangoPiD1()
	s.Cores = 0
	if s.Validate() == nil {
		t.Error("zero cores accepted")
	}
	s = MangoPiD1()
	s.Cores = 2 // mismatch with Mem.Cores
	if s.Validate() == nil {
		t.Error("core mismatch accepted")
	}
	s = MangoPiD1()
	s.FlopsPerCycle = 0
	if s.Validate() == nil {
		t.Error("zero flop rate accepted")
	}
	s = MangoPiD1()
	s.AutoVecBytes = -1
	if s.Validate() == nil {
		t.Error("negative SIMD width accepted")
	}
}

func TestString(t *testing.T) {
	got := MangoPiD1().String()
	for _, want := range []string{"MangoPi", "C906", "1 GiB"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
}

func TestNewHierarchyWorks(t *testing.T) {
	for _, s := range All() {
		h := s.NewHierarchy()
		if h.LineSize() != 64 {
			t.Errorf("%s: line size %d", s.Name, h.LineSize())
		}
		// A cold miss must complete in finite positive time.
		if done := h.Access(0, 0, 4096, false, 1); done <= 0 {
			t.Errorf("%s: cold miss done = %v", s.Name, done)
		}
	}
}

// TestIdentityStringMirrorsIdentity pins the canonical device encoding the
// persistent memo store keys on: it must be deterministic, and it must
// distinguish exactly what Identity distinguishes — every mutation that
// changes the identity changes the string, and equal identities render
// equally.
func TestIdentityStringMirrorsIdentity(t *testing.T) {
	a, _ := VisionFive().IdentityString()
	b, _ := VisionFive().IdentityString()
	if a != b {
		t.Fatal("IdentityString is not deterministic")
	}
	if a == "" {
		t.Fatal("empty identity string")
	}
	if !strings.Contains(a, `"VisionFive"`) {
		t.Errorf("identity string does not quote the device name: %s", a)
	}
	mutations := map[string]func(*Spec){
		"clock":        func(s *Spec) { s.FreqGHz = 2.0 },
		"L2 size":      func(s *Spec) { s.Mem.L2.Cache.Size *= 2 },
		"drop L2":      func(s *Spec) { s.Mem.L2 = nil },
		"miss overlap": func(s *Spec) { s.Mem.MissOverlap = 0.5 },
		"no prefetch":  func(s *Spec) { s.Mem.Prefetch = nil },
		"policy":       func(s *Spec) { s.Mem.L1.Policy = cache.FIFO },
	}
	for name, mutate := range mutations {
		s := VisionFive()
		if s.Mem.L2 != nil {
			l2 := *s.Mem.L2
			s.Mem.L2 = &l2
		}
		mutate(&s)
		got, persistable := s.IdentityString()
		if !persistable {
			t.Errorf("mutation %q not persistable", name)
		}
		if got == a {
			t.Errorf("mutation %q does not change the identity string", name)
		}
	}
}

// TestIdentityStringFactorySpecsAreVolatile pins that a custom prefetcher
// factory — whose identity is a process-local code pointer — is flagged
// non-persistable, so the memo store never writes such keys to disk.
func TestIdentityStringFactorySpecsAreVolatile(t *testing.T) {
	if _, persistable := VisionFive().IdentityString(); !persistable {
		t.Fatal("preset flagged non-persistable")
	}
	s := specWithFactoryDistance(2)
	if _, persistable := s.IdentityString(); persistable {
		t.Fatal("factory-built spec flagged persistable")
	}
}
