package run_test

import (
	"maps"
	"strings"
	"testing"

	"riscvmem/internal/run"
)

// FuzzParseWorkloadSpec drives the CLI/wire workload grammar with arbitrary
// input. The parser must never panic, and any spec it accepts must survive
// a String() round trip unchanged — the canonical string is the memoization
// identity, so a lossy render would alias or split cache entries.
func FuzzParseWorkloadSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"stream",
		"stream:test=TRIAD,elems=65536",
		"transpose/Blocking",
		"blur:radius=3,rows=512,cols=512",
		"STREAM:Test=Copy",
		"stream:",
		":k=v",
		"stream:k",
		"stream:k=",
		"stream:k=v,k=w",
		"a/b/c",
		"stream:elems=65536,test=TRIAD,verify=true",
		"x:\x00=\xff",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := run.ParseWorkloadSpec(s)
		if err != nil {
			return
		}
		rendered := spec.String()
		back, err := run.ParseWorkloadSpec(rendered)
		if err != nil {
			t.Fatalf("accepted %q but canonical form %q does not reparse: %v", s, rendered, err)
		}
		if back.Kernel != spec.Kernel || !maps.Equal(back.Params, spec.Params) {
			t.Fatalf("round trip changed the spec: %q -> %+v -> %q -> %+v", s, spec, rendered, back)
		}
		if again := back.String(); again != rendered {
			t.Fatalf("canonical form is not a fixed point: %q then %q", rendered, again)
		}
		// '/' is legal in kernel names (custom workloads like "chase/8MiB");
		// only the parameter-grammar characters are reserved.
		if strings.ContainsAny(spec.Kernel, ":,=") {
			t.Fatalf("accepted kernel name %q containing reserved grammar characters", spec.Kernel)
		}
	})
}
