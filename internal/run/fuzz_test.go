package run_test

import (
	"encoding/json"
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

// FuzzWorkloadSpecJSON holds WorkloadSpec.UnmarshalJSON's string path to
// its definition: decoding a JSON string literal must give exactly what
// json.Unmarshal into a string and then ParseWorkloadSpec give — the same
// spec, or the same error. Plain literals take a fast path that skips the
// JSON decoder; the seeds cover what must leave it: escapes, non-ASCII,
// invalid UTF-8, control bytes, stray and missing quotes.
func FuzzWorkloadSpecJSON(f *testing.F) {
	for _, seed := range []string{
		`"stream:test=TRIAD,elems=65536"`,
		`"transpose/Blocking"`,
		`"gblur:variant=Memory,w=20,h=20,c=3,f=19"`,
		`""`,
		`" "`,
		`"stream:test=TRIAD,elems=4096"`,
		`"transpose\/Blocking"`,
		`"stream:test=TRIAD\\"`,
		`"stréam"`,
		"\"stréam:test=COPY\"",
		"\"stream:test=\xff\xfe\"",
		"\"stream:test=\tCOPY\"",
		"\"stream\x7f\"",
		`"unterminated`,
		`"`,
		`"a"b"`,
		`"a" `,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || data[0] != '"' {
			return // the object form is decoded by encoding/json alone
		}
		var got run.WorkloadSpec
		gotErr := got.UnmarshalJSON(data)

		var str string
		jsonErr := json.Unmarshal(data, &str)
		var (
			want    run.WorkloadSpec
			specErr error
		)
		if jsonErr == nil {
			want, specErr = run.ParseWorkloadSpec(str)
		}
		switch {
		case jsonErr != nil:
			// A malformed literal fails with encoding/json's own error.
			if gotErr == nil || gotErr.Error() != jsonErr.Error() {
				t.Fatalf("UnmarshalJSON(%q) = %+v, %v; the JSON decoder fails: %v", data, got, gotErr, jsonErr)
			}
		case specErr != nil:
			// A spec error; its text may name whichever of several bad
			// parameters map iteration meets first, so only the class is
			// compared.
			if gotErr == nil || !strings.HasPrefix(gotErr.Error(), "run: ") {
				t.Fatalf("UnmarshalJSON(%q) = %+v, %v; the reference fails: %v", data, got, gotErr, specErr)
			}
		case gotErr != nil:
			t.Fatalf("UnmarshalJSON(%q) failed: %v; the reference gives %+v", data, gotErr, want)
		case got.Kernel != want.Kernel || !maps.Equal(got.Params, want.Params):
			t.Fatalf("UnmarshalJSON(%q) = %+v, reference %+v", data, got, want)
		}
	})
}
