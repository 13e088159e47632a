package run

import (
	"context"
	"encoding/json"
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"riscvmem/internal/kernels/blur"
	"riscvmem/internal/kernels/stream"
	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/sim"
)

// sameSpec reports whether two specs denote the same kernel and
// parameters; a nil and an empty parameter map are the same.
func sameSpec(a, b WorkloadSpec) bool {
	return a.Kernel == b.Kernel && maps.Equal(a.Params, b.Params)
}

// TestCacheKeyGolden pins the canonical CacheKey strings of the built-in
// adapters. These are memoization identities: changing one silently
// invalidates (or worse, collides) warm caches, so any change here must be
// deliberate.
func TestCacheKeyGolden(t *testing.T) {
	cases := []struct {
		w    Workload
		want string
	}{
		// Unset Cores/ScaleBy normalize to their documented defaults, so the
		// key matches an explicitly defaulted config.
		{Stream(stream.Config{Test: stream.Triad, Elems: 65536, Reps: 2}),
			"stream:cores=1,elems=65536,reps=2,scaleby=1,test=TRIAD"},
		{Stream(stream.Config{Test: stream.Triad, Elems: 65536, Cores: 1, Reps: 2, ScaleBy: 1}),
			"stream:cores=1,elems=65536,reps=2,scaleby=1,test=TRIAD"},
		{Stream(stream.Config{Test: stream.Copy, Elems: 4096, Cores: 2, Reps: 1, ScaleBy: 4}),
			"stream:cores=2,elems=4096,reps=1,scaleby=4,test=COPY"},
		{Transpose(transpose.Config{N: 512, Variant: transpose.Blocking}),
			"transpose:block=0,n=512,variant=Blocking,verify=false"},
		{Transpose(transpose.Config{N: 1024, Variant: transpose.ManualBlocking, Block: 16, Verify: true}),
			"transpose:block=16,n=1024,variant=Manual_blocking,verify=true"},
		{Blur(blur.Config{W: 636, H: 507, C: 3, F: 19, Variant: blur.Memory}),
			"gblur:c=3,f=19,h=507,variant=Memory,verify=false,w=636"},
	}
	for _, tc := range cases {
		kw, ok := tc.w.(Keyed)
		if !ok {
			t.Fatalf("%s does not implement Keyed", tc.w.Name())
		}
		if got := kw.CacheKey(); got != tc.want {
			t.Errorf("%s CacheKey = %q, want %q", tc.w.Name(), got, tc.want)
		}
	}
}

// TestCacheKeyDeterminism asserts the key is identical across repeated,
// independently constructed computations — the property the fmt "%+v" keys
// could not guarantee across struct refactors, and which map-ordered
// rendering would break within a single process.
func TestCacheKeyDeterminism(t *testing.T) {
	build := func() string {
		return Blur(blur.Config{W: 100, H: 50, C: 3, F: 5, Variant: blur.OneD}).(Keyed).CacheKey()
	}
	want := build()
	for i := 0; i < 100; i++ {
		if got := build(); got != want {
			t.Fatalf("iteration %d: CacheKey %q != %q", i, got, want)
		}
	}
}

// TestCanonicalSpecCoversAllConfigFields guards the canonical encoders
// against silently dropping a config field: adding a field to a kernel
// Config must fail here until the corresponding *Spec function (and so the
// CacheKey) learns about it.
func TestCanonicalSpecCoversAllConfigFields(t *testing.T) {
	cases := []struct {
		name   string
		fields int
		spec   WorkloadSpec
	}{
		{"stream", reflect.TypeOf(stream.Config{}).NumField(), StreamSpec(stream.Config{})},
		{"transpose", reflect.TypeOf(transpose.Config{}).NumField(), TransposeSpec(transpose.Config{})},
		{"gblur", reflect.TypeOf(blur.Config{}).NumField(), BlurSpec(blur.Config{})},
	}
	for _, tc := range cases {
		if got := len(tc.spec.Params); got != tc.fields {
			t.Errorf("%s: canonical spec has %d params but Config has %d fields — a field is missing from the encoding (or a param is stale)",
				tc.name, got, tc.fields)
		}
	}
}

// TestParseWorkloadSpecRoundTrip is the grammar property test:
// ParseWorkloadSpec(spec.String()) == spec, over the canonical encodings of
// randomized built-in configs and hand-written specs.
func TestParseWorkloadSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var specs []WorkloadSpec
	for i := 0; i < 50; i++ {
		specs = append(specs,
			StreamSpec(stream.Config{
				Test:  stream.Tests()[rng.Intn(4)],
				Elems: rng.Intn(1 << 20), Cores: rng.Intn(16),
				Reps: rng.Intn(10), ScaleBy: rng.Intn(8),
			}),
			TransposeSpec(transpose.Config{
				N: rng.Intn(4096), Variant: transpose.Variants()[rng.Intn(5)],
				Block: rng.Intn(64), Verify: rng.Intn(2) == 0,
			}),
			BlurSpec(blur.Config{
				W: rng.Intn(4096), H: rng.Intn(4096), C: 1 + rng.Intn(4),
				F: 1 + 2*rng.Intn(15), Variant: blur.Variants()[rng.Intn(5)],
				Verify: rng.Intn(2) == 0,
			}),
		)
	}
	specs = append(specs,
		WorkloadSpec{Kernel: "mykernel"},
		WorkloadSpec{Kernel: "mykernel", Params: map[string]string{"a": "1", "b": "x"}},
	)
	for _, spec := range specs {
		s := spec.String()
		back, err := ParseWorkloadSpec(s)
		if err != nil {
			t.Fatalf("ParseWorkloadSpec(%q): %v", s, err)
		}
		if !sameSpec(back, spec) {
			t.Errorf("round trip %q: got %+v, want %+v", s, back, spec)
		}
		if back.String() != s {
			t.Errorf("re-render of %q: got %q", s, back.String())
		}
	}
}

// TestParseWorkloadSpecGrammar covers the grammar forms and normalization.
func TestParseWorkloadSpecGrammar(t *testing.T) {
	cases := []struct {
		in   string
		want WorkloadSpec
	}{
		{"stream", WorkloadSpec{Kernel: "stream"}},
		{"STREAM:Test=triad, Elems=100", WorkloadSpec{Kernel: "stream",
			Params: map[string]string{"test": "triad", "elems": "100"}}},
		{"stream/TRIAD", WorkloadSpec{Kernel: "stream",
			Params: map[string]string{"test": "TRIAD"}}},
		{"transpose/Blocking", WorkloadSpec{Kernel: "transpose",
			Params: map[string]string{"variant": "Blocking"}}},
		{"gblur/Memory", WorkloadSpec{Kernel: "gblur",
			Params: map[string]string{"variant": "Memory"}}},
		// An unknown prefix keeps the slash AND its case: custom registry
		// names may legitimately contain both ("chase/8MiB").
		{"chase/8MiB", WorkloadSpec{Kernel: "chase/8MiB"}},
		{"  transpose:n=256,variant=Naive  ", WorkloadSpec{Kernel: "transpose",
			Params: map[string]string{"n": "256", "variant": "Naive"}}},
	}
	for _, tc := range cases {
		got, err := ParseWorkloadSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseWorkloadSpec(%q): %v", tc.in, err)
		}
		if !sameSpec(got, tc.want) {
			t.Errorf("ParseWorkloadSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestParseWorkloadSpecErrors covers the malformed-spec error paths; every
// message must carry the grammar so the CLI user can self-correct.
func TestParseWorkloadSpecErrors(t *testing.T) {
	for _, in := range []string{
		"", "  ", ":", ":a=b", "stream:", "stream:elems", "stream:=4",
		"stream:elems=", "stream:elems=1,elems=2", "stream/",
	} {
		_, err := ParseWorkloadSpec(in)
		if err == nil {
			t.Errorf("ParseWorkloadSpec(%q): expected error", in)
			continue
		}
		if !strings.Contains(err.Error(), "kernel[:key=value") &&
			!strings.Contains(err.Error(), "variant") &&
			!strings.Contains(err.Error(), "duplicate") {
			t.Errorf("ParseWorkloadSpec(%q) error %q does not mention the grammar", in, err)
		}
	}
}

// TestNewWorkloadErrors covers unknown kernels, unknown parameters and bad
// values: errors must list the registered kernels (or the accepted keys)
// and the grammar, matching the machine.ByName error style.
func TestNewWorkloadErrors(t *testing.T) {
	_, err := NewWorkload(WorkloadSpec{Kernel: "nope"})
	if err == nil {
		t.Fatal("unknown kernel: expected error")
	}
	for _, want := range []string{"stream", "transpose", "gblur", "grammar"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-kernel error %q does not mention %q", err, want)
		}
	}

	_, err = NewWorkload(MustParseWorkloadSpec("stream:elmes=4096"))
	if err == nil {
		t.Fatal("unknown parameter: expected error")
	}
	for _, want := range []string{"elmes", "accepted", "elems"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-parameter error %q does not mention %q", err, want)
		}
	}

	_, err = NewWorkload(MustParseWorkloadSpec("stream:elems=many"))
	if err == nil || !strings.Contains(err.Error(), "integer") {
		t.Errorf("bad int error = %v, want mention of integer", err)
	}

	_, err = NewWorkload(MustParseWorkloadSpec("stream:test=WRONG"))
	if err == nil || !strings.Contains(err.Error(), "TRIAD") {
		t.Errorf("bad test error = %v, want the valid test list", err)
	}

	_, err = NewWorkload(MustParseWorkloadSpec("transpose:variant=Zigzag"))
	if err == nil || !strings.Contains(err.Error(), "Blocking") {
		t.Errorf("bad variant error = %v, want the valid variant list", err)
	}

	// A registered (non-factory) workload resolves by bare name but rejects
	// parameters.
	w := NewFunc("spec-test-custom", func(ctx context.Context, m *sim.Machine) (Result, error) {
		return Result{}, nil
	})
	if err := Register(w); err != nil {
		t.Fatal(err)
	}
	got, err := NewWorkload(WorkloadSpec{Kernel: "spec-test-custom"})
	if err != nil || got.Name() != "spec-test-custom" {
		t.Fatalf("registry fallback: %v, %v", got, err)
	}
	if _, err := NewWorkload(WorkloadSpec{Kernel: "spec-test-custom",
		Params: map[string]string{"x": "1"}}); err == nil {
		t.Error("params on a registered workload: expected error")
	}

	// A mixed-case registered name survives the parse → resolve round trip
	// (the parser must not lowercase names that are not factory kernels).
	mixed := NewFunc("spec-test-Mixed/8MiB", func(ctx context.Context, m *sim.Machine) (Result, error) {
		return Result{}, nil
	})
	if err := Register(mixed); err != nil {
		t.Fatal(err)
	}
	got, err = ParseWorkload("spec-test-Mixed/8MiB")
	if err != nil || got.Name() != "spec-test-Mixed/8MiB" {
		t.Errorf("mixed-case registered name: %v, %v", got, err)
	}
}

// TestNewWorkloadBuildsEquivalentConfigs pins that the factory path and the
// direct-config path produce workloads with identical identities (Name and
// CacheKey) when given the same parameters.
func TestNewWorkloadBuildsEquivalentConfigs(t *testing.T) {
	cases := []struct {
		specStr string
		direct  Workload
	}{
		{"stream:test=triad,elems=65536,cores=1,reps=2,scaleby=1",
			Stream(stream.Config{Test: stream.Triad, Elems: 65536, Cores: 1, Reps: 2, ScaleBy: 1})},
		{"transpose:variant=manual_blocking,n=256,block=8,verify=true",
			Transpose(transpose.Config{Variant: transpose.ManualBlocking, N: 256, Block: 8, Verify: true})},
		{"gblur:variant=1d_kernels,w=100,h=80,c=2,f=5",
			Blur(blur.Config{Variant: blur.OneD, W: 100, H: 80, C: 2, F: 5})},
	}
	for _, tc := range cases {
		w, err := ParseWorkload(tc.specStr)
		if err != nil {
			t.Fatalf("ParseWorkload(%q): %v", tc.specStr, err)
		}
		if w.Name() != tc.direct.Name() {
			t.Errorf("%q: Name %q != direct %q", tc.specStr, w.Name(), tc.direct.Name())
		}
		if got, want := w.(Keyed).CacheKey(), tc.direct.(Keyed).CacheKey(); got != want {
			t.Errorf("%q: CacheKey %q != direct %q", tc.specStr, got, want)
		}
	}
}

// TestWorkloadSpecJSON round-trips both JSON forms (object and grammar
// string) and pins the marshaled shape.
func TestWorkloadSpecJSON(t *testing.T) {
	spec := MustParseWorkloadSpec("stream:test=TRIAD,elems=4096")
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back WorkloadSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !sameSpec(back, spec) {
		t.Errorf("object round trip: %+v != %+v", back, spec)
	}

	var fromString WorkloadSpec
	if err := json.Unmarshal([]byte(`"stream:test=TRIAD,elems=4096"`), &fromString); err != nil {
		t.Fatal(err)
	}
	if !sameSpec(fromString, spec) {
		t.Errorf("string form: %+v != %+v", fromString, spec)
	}

	var bad WorkloadSpec
	if err := json.Unmarshal([]byte(`"stream:elems="`), &bad); err == nil {
		t.Error("malformed string spec: expected error")
	}

	// Mixed-case keys in the object form normalize to lowercase.
	var mixed WorkloadSpec
	if err := json.Unmarshal([]byte(`{"kernel":"Stream","params":{"Test":"TRIAD"}}`), &mixed); err != nil {
		t.Fatal(err)
	}
	if mixed.Kernel != "stream" || mixed.Params["test"] != "TRIAD" {
		t.Errorf("normalization: %+v", mixed)
	}

	// Object-form validation: misspelled fields, case-colliding keys and
	// reserved characters fail loudly instead of silently running defaults
	// (or rendering a canonical string that parses to a different spec).
	for _, in := range []string{
		`{"kernel":"stream","parms":{"elems":"9"}}`,
		`{"kernel":"stream","params":{"Elems":"100","elems":"200"}}`,
		`{"kernel":"k","params":{"a":"1,b=2"}}`,
		`{"kernel":"k:v","params":{"a":"1"}}`,
		`{"kernel":""}`,
	} {
		var s WorkloadSpec
		if err := json.Unmarshal([]byte(in), &s); err == nil {
			t.Errorf("unmarshal %s: expected error, got %+v", in, s)
		}
	}
}

// TestNewWorkloadValidatesHandBuiltSpecs pins that reserved characters in
// hand-built specs are rejected before they can poison a canonical string
// or cache key.
func TestNewWorkloadValidatesHandBuiltSpecs(t *testing.T) {
	for _, spec := range []WorkloadSpec{
		{Kernel: ""},
		{Kernel: "a,b"},
		{Kernel: "stream", Params: map[string]string{"elems": "1,cores=2"}},
		{Kernel: "stream", Params: map[string]string{"el=ems": "1"}},
		{Kernel: "stream", Params: map[string]string{"elems": ""}},
	} {
		if _, err := NewWorkload(spec); err == nil {
			t.Errorf("NewWorkload(%+v): expected validation error", spec)
		}
	}
}

// TestKernelsListing asserts the built-ins are registered with docs.
func TestKernelsListing(t *testing.T) {
	infos := Kernels()
	byName := map[string]KernelInfo{}
	for _, k := range infos {
		byName[k.Kernel] = k
	}
	for _, want := range []string{"stream", "transpose", "gblur"} {
		k, ok := byName[want]
		if !ok {
			t.Fatalf("kernel %q not registered (have %v)", want, infos)
		}
		if k.Summary == "" || k.Params == "" || k.VariantKey == "" {
			t.Errorf("kernel %q underdocumented: %+v", want, k)
		}
	}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Kernel >= infos[i].Kernel {
			t.Errorf("Kernels() not sorted: %q before %q", infos[i-1].Kernel, infos[i].Kernel)
		}
	}
}
