package machine

import (
	"reflect"
	"strings"
	"testing"

	"riscvmem/internal/cache"
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

// TestIdentityCoversAllSpecFields is the drift guard for Spec.Identity. It
// walks the Spec type tree through pointers and, on a fresh XeonServer (the
// preset that sets every optional pointer), perturbs one leaf field at a
// time: every perturbation, and every optional pointer set to nil, must
// change the identity. A field added anywhere in the tree and left out of
// the encoding fails here, and so does a field that is not plain data.
func TestIdentityCoversAllSpecFields(t *testing.T) {
	base := XeonServer()
	want := base.Identity()
	if other := XeonServer(); other.Mem.L2 == base.Mem.L2 || other.Identity() != want {
		t.Fatal("separately built presets (distinct pointers) have distinct identities")
	}

	type leaf struct {
		path string
		at   func(*Spec) reflect.Value // the field inside the given spec
		nils bool                      // set the pointer nil instead of perturbing
	}
	var leaves []leaf
	var walk func(path string, typ reflect.Type, at func(*Spec) reflect.Value)
	walk = func(path string, typ reflect.Type, at func(*Spec) reflect.Value) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type,
					func(s *Spec) reflect.Value { return at(s).Field(i) })
			}
		case reflect.Pointer:
			leaves = append(leaves, leaf{path: path, at: at, nils: true})
			walk(path, typ.Elem(), func(s *Spec) reflect.Value { return at(s).Elem() })
		default:
			leaves = append(leaves, leaf{path: path, at: at})
		}
	}
	walk("Spec", reflect.TypeOf(Spec{}), func(s *Spec) reflect.Value { return reflect.ValueOf(s).Elem() })

	for _, l := range leaves {
		s := XeonServer()
		v := l.at(&s)
		switch {
		case l.nils:
			if v.IsNil() {
				t.Fatalf("%s: XeonServer leaves it nil, so the walk cannot reach its fields", l.path)
			}
			v.Set(reflect.Zero(v.Type()))
		case v.CanInt():
			v.SetInt(v.Int() + 1)
		case v.CanUint():
			v.SetUint(v.Uint() + 1)
		case v.CanFloat():
			v.SetFloat(v.Float() + 0.5)
		case v.Kind() == reflect.String:
			v.SetString(v.String() + "x")
		case v.Kind() == reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Errorf("%s: a %s is not plain data and cannot be part of a device's identity", l.path, v.Kind())
			continue
		}
		if s.Identity() == want {
			what := "perturbing"
			if l.nils {
				what = "setting nil"
			}
			t.Errorf("%s %s does not change the identity: add the field to Spec.appendCanonical", what, l.path)
		}
	}
	if len(leaves) < 50 {
		t.Errorf("walked %d leaves; the Spec tree has more", len(leaves))
	}
}

// TestIdentityDistinguishesVariants spot-checks the encoding with named
// ablations: identical presets share an identity, any parameter tweak
// breaks it.
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
		"policy":        func(s *Spec) { s.Mem.L1.Policy = cache.FIFO },
	}
	base := VisionFive().Identity()
	for name, mutate := range mutations {
		s := VisionFive()
		mutate(&s)
		if s.Identity() == base {
			t.Errorf("mutation %q does not change the identity", name)
		}
	}
}

// TestIdentityPinsPresetFormat pins the presets' identities byte for byte.
// They are persisted memo keys: a change here orphans every disk entry and
// must come with a run.CacheVersion key-format bump. They must also be
// printable ASCII, since the disk envelope carries them in JSON and a
// non-UTF-8 Device would fail the mislabel cross-check on every read.
func TestIdentityPinsPresetFormat(t *testing.T) {
	want := map[string]string{
		"Xeon":         "Xeon#88a100b430a232f09c303102c39f40c2",
		"RaspberryPi4": "RaspberryPi4#bb0638db9d650de9e1c25073b290eaad",
		"VisionFive":   "VisionFive#4811da6ba06b54850490a6ae2e059882",
		"MangoPi":      "MangoPi#3d4d79aafed21cddc8c241c3b5f75b35",
	}
	for _, s := range All() {
		got := s.Identity()
		if got != want[s.Name] {
			t.Errorf("%s.Identity() = %q, pinned %q", s.Name, got, want[s.Name])
		}
		for i := 0; i < len(got); i++ {
			if got[i] < 0x20 || got[i] > 0x7e {
				t.Errorf("%s.Identity() byte %d is %#x, not printable ASCII", s.Name, i, got[i])
			}
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
		// A cold miss must complete in finite positive time.
		if done := h.Access(0, 0, 4096, false, 1); done <= 0 {
			t.Errorf("%s: cold miss done = %v", s.Name, done)
		}
	}
}
