package run

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// WorkloadSpec is a workload as data: a kernel name plus string parameters.
// It is the wire-format identity of a job — parseable from the CLI grammar
//
//	kernel[:key=value,key=value,...]     e.g. stream:test=TRIAD,elems=65536
//	kernel/variant                       shorthand, e.g. transpose/Blocking
//
// (mirroring the sweep-axis grammar), marshalable to/from JSON, and — once
// canonicalized — the stable string every built-in workload derives its
// memoization CacheKey from. Keys are case-insensitive (stored lowercase);
// values are kernel-defined. Neither may contain ',' or '=' (there is no
// escaping in the grammar); '/' and ':' are reserved in kernel names.
type WorkloadSpec struct {
	Kernel string            `json:"kernel"`
	Params map[string]string `json:"params,omitempty"`
}

// String renders the spec in the canonical grammar: the kernel name, then
// the parameters sorted by key — so two equal specs always render
// identically, independent of map iteration or construction order. The
// output parses back to an equal spec (ParseWorkloadSpec(s.String()) == s).
func (s WorkloadSpec) String() string {
	if len(s.Params) == 0 {
		return s.Kernel
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Kernel)
	for i, k := range keys {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Params[k])
	}
	return b.String()
}

// With returns a copy of the spec with the parameter set (added or
// replaced). The receiver is not modified.
func (s WorkloadSpec) With(key, value string) WorkloadSpec {
	p := make(map[string]string, len(s.Params)+1)
	for k, v := range s.Params {
		p[k] = v
	}
	p[strings.ToLower(key)] = value
	return WorkloadSpec{Kernel: s.Kernel, Params: p}
}

// UnmarshalJSON accepts either the object form {"kernel":...,"params":{...}}
// or a plain grammar string ("stream:test=TRIAD,elems=65536") — the latter
// keeps hand-written requests terse.
func (s *WorkloadSpec) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		str, ok := plainJSONString(data)
		if !ok {
			var decoded string // declared here: its address escapes, str's must not
			if err := json.Unmarshal(data, &decoded); err != nil {
				return err
			}
			str = decoded
		}
		spec, err := ParseWorkloadSpec(str)
		if err != nil {
			return err
		}
		*s = spec
		return nil
	}
	type plain WorkloadSpec // drop methods to avoid recursion
	var p plain
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields() // typos ("parms") fail loudly, matching the transport
	if err := dec.Decode(&p); err != nil {
		return err
	}
	p.Kernel = canonicalKernelName(strings.TrimSpace(p.Kernel))
	if len(p.Params) > 0 {
		norm := make(map[string]string, len(p.Params))
		for k, v := range p.Params {
			lk := strings.ToLower(k)
			if _, dup := norm[lk]; dup {
				// Folding would silently keep a map-iteration-dependent one
				// of the two values; reject like the grammar's duplicate
				// check does.
				return fmt.Errorf("run: workload spec: duplicate parameter %q (keys fold to lowercase)", lk)
			}
			norm[lk] = v
		}
		p.Params = norm
	}
	spec := WorkloadSpec(p)
	if err := spec.validate(); err != nil {
		return err
	}
	*s = spec
	return nil
}

// plainJSONString returns the body of a JSON string literal that decodes
// to itself — printable ASCII with no backslash or quote — which every
// hand-written or generated spec is, so those skip a second JSON scan. For
// anything else (escapes, non-ASCII, control bytes, a malformed literal)
// ok is false and the caller decodes with encoding/json.
func plainJSONString(data []byte) (s string, ok bool) {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return "", false
	}
	body := data[1 : len(data)-1]
	for _, c := range body {
		if c < ' ' || c > '~' || c == '\\' || c == '"' {
			return "", false
		}
	}
	return string(body), true
}

// validate enforces the structural rules the grammar guarantees but
// hand-built and JSON-decoded specs could violate: a non-empty kernel name
// without grammar metacharacters, and no ',' or '=' in parameter keys or
// values (there is no escaping, so such a spec would render a canonical
// string that parses back to a different spec — and could collide with
// another spec's cache key).
func (s WorkloadSpec) validate() error {
	if s.Kernel == "" {
		return fmt.Errorf("run: workload spec with empty kernel name (want %s)", SpecGrammar)
	}
	if reserved(s.Kernel, true) {
		return fmt.Errorf("run: kernel name %q contains a reserved character (':', ',' or '=')", s.Kernel)
	}
	for k, v := range s.Params {
		if k == "" || reserved(k, false) {
			return fmt.Errorf("run: workload spec %s: parameter key %q is empty or contains ',' or '='", s.Kernel, k)
		}
		if v == "" || reserved(v, false) {
			return fmt.Errorf("run: workload spec %s: parameter %s value %q is empty or contains ',' or '='", s.Kernel, k, v)
		}
	}
	return nil
}

// reserved reports whether s holds ',' or '=', or ':' when colon is set.
// validate runs on every spec, twice on the JSON path, so it is one byte
// loop per string.
func reserved(s string, colon bool) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '=':
			return true
		case ':':
			if colon {
				return true
			}
		}
	}
	return false
}

// SpecGrammar is the one-line workload spec grammar, carried by every spec
// error and by the service discovery document.
const SpecGrammar = "kernel[:key=value,key=value,...] or kernel/variant"

// canonicalKernelName normalizes a bare workload name: built-in kernel names
// are lowercase and matched case-insensitively, but a name that is not a
// built-in kernel is kept verbatim — registered custom workloads (e.g.
// "chase/8MiB") resolve by exact name through the workload registry.
func canonicalKernelName(name string) string {
	lower := strings.ToLower(name)
	if lower == name {
		return name
	}
	if _, ok := kernels[lower]; ok {
		return lower
	}
	return name
}

// ParseWorkloadSpec parses the CLI grammar into a WorkloadSpec.
//
//	stream:test=TRIAD,elems=65536   explicit parameters
//	transpose/Blocking              shorthand for the kernel's variant key
//	gblur                           bare kernel (all defaults)
//	chase/8MiB                      a registered custom workload's name
//
// Built-in kernel names are matched case-insensitively (and stored
// lowercase); a name that is not a built-in kernel is kept verbatim,
// since registered custom workloads resolve by exact name. Parameter keys
// are lowercased; values keep their case (kernels resolve them
// case-insensitively where that makes sense). The kernel/variant shorthand
// expands through the kernels table: when the prefix names a built-in
// kernel with a variant key, the suffix becomes that parameter;
// otherwise the whole string is kept as a (custom registry) kernel name.
func ParseWorkloadSpec(s string) (WorkloadSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return WorkloadSpec{}, fmt.Errorf("run: empty workload spec (want %s)", SpecGrammar)
	}
	kernel, rest, hasParams := strings.Cut(s, ":")
	kernel = strings.TrimSpace(kernel)
	if !hasParams {
		// Maybe the kernel/variant shorthand. Only expand when the prefix is
		// a built-in kernel that declares a variant key — "chase/8MiB" is a
		// legitimate custom workload name.
		if prefix, variant, ok := strings.Cut(kernel, "/"); ok {
			if info, found := kernels[strings.ToLower(prefix)]; found && info.info.VariantKey != "" {
				variant = strings.TrimSpace(variant)
				if variant == "" {
					return WorkloadSpec{}, fmt.Errorf("run: workload spec %q: empty variant (want %s)", s, SpecGrammar)
				}
				return WorkloadSpec{
					Kernel: strings.ToLower(prefix),
					Params: map[string]string{info.info.VariantKey: variant},
				}, nil
			}
		}
		spec := WorkloadSpec{Kernel: canonicalKernelName(kernel)}
		if err := spec.validate(); err != nil {
			return WorkloadSpec{}, err
		}
		return spec, nil
	}
	if kernel == "" {
		return WorkloadSpec{}, fmt.Errorf("run: workload spec %q: empty kernel name (want %s)", s, SpecGrammar)
	}
	if strings.TrimSpace(rest) == "" {
		return WorkloadSpec{}, fmt.Errorf("run: workload spec %q: empty parameter list (want %s)", s, SpecGrammar)
	}
	spec := WorkloadSpec{Kernel: canonicalKernelName(kernel), Params: map[string]string{}}
	for more := true; more; {
		var kv string
		kv, rest, more = strings.Cut(rest, ",")
		key, value, ok := strings.Cut(kv, "=")
		key = strings.ToLower(strings.TrimSpace(key))
		value = strings.TrimSpace(value)
		if !ok || key == "" || value == "" {
			return WorkloadSpec{}, fmt.Errorf("run: workload spec %q: bad parameter %q (want %s)", s, kv, SpecGrammar)
		}
		if _, dup := spec.Params[key]; dup {
			return WorkloadSpec{}, fmt.Errorf("run: workload spec %q: duplicate parameter %q", s, key)
		}
		spec.Params[key] = value
	}
	// The split on ':' leaves ',' and '=' possible in the kernel (and in
	// the no-colon path above); validate like the JSON decoder does so no
	// entry point builds a spec whose canonical string is ambiguous.
	if err := spec.validate(); err != nil {
		return WorkloadSpec{}, err
	}
	return spec, nil
}

// MustParseWorkloadSpec is ParseWorkloadSpec but panics on error; for tests
// and examples with literal specs.
func MustParseWorkloadSpec(s string) WorkloadSpec {
	spec, err := ParseWorkloadSpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// KernelInfo documents one spec-buildable kernel for listings (/v1/workloads,
// CLI error messages) and drives the kernel/variant shorthand.
type KernelInfo struct {
	// Kernel is the grammar name, lowercase ("stream").
	Kernel string `json:"kernel"`
	// Summary is a one-line description.
	Summary string `json:"summary"`
	// Params documents the accepted parameters, human-readable.
	Params string `json:"params"`
	// VariantKey is the parameter the "kernel/value" shorthand sets
	// ("test" for stream, "variant" for transpose and gblur); empty
	// disables the shorthand for this kernel.
	VariantKey string `json:"variant_key,omitempty"`
}

// kernelEntry is one built-in kernel of the kernels table (workloads.go):
// its documentation and its factory. A factory must reject unknown
// parameter keys (the params helper does) so typos fail loudly instead of
// silently running defaults.
type kernelEntry struct {
	info  KernelInfo
	build func(spec WorkloadSpec) (Workload, error)
}

// Kernels lists the spec-buildable kernels, sorted by name.
func Kernels() []KernelInfo {
	out := make([]KernelInfo, 0, len(kernels))
	for _, e := range kernels {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kernel < out[j].Kernel })
	return out
}

// NewWorkload materializes a spec: the kernel's factory builds the workload
// from the parameters. Specs whose kernel is not built in fall back to the
// process-wide workload registry (custom workloads registered under a plain
// name take no parameters). The error for an unknown kernel lists the
// built-in kernels, the registered workload names, and the
// grammar — everything needed to fix the request.
func NewWorkload(spec WorkloadSpec) (Workload, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if e, ok := kernels[strings.ToLower(spec.Kernel)]; ok {
		w, err := e.build(spec)
		if err != nil {
			return nil, fmt.Errorf("run: workload %q: %w (params: %s)", spec.String(), err, e.info.Params)
		}
		return w, nil
	}
	if w, err := Lookup(spec.Kernel); err == nil {
		if len(spec.Params) > 0 {
			return nil, fmt.Errorf("run: workload %q is a registered workload and takes no parameters (got %s)",
				spec.Kernel, spec.String())
		}
		return w, nil
	}
	kernelNames := make([]string, 0, len(Kernels()))
	for _, k := range Kernels() {
		kernelNames = append(kernelNames, k.Kernel)
	}
	msg := fmt.Sprintf("run: unknown kernel %q (kernels: %s", spec.Kernel, strings.Join(kernelNames, ", "))
	if reg := Names(); len(reg) > 0 {
		msg += "; registered workloads: " + strings.Join(reg, ", ")
	}
	return nil, fmt.Errorf("%s; grammar: %s)", msg, SpecGrammar)
}

// ParseWorkload parses and materializes a spec string in one step — the CLI
// entry point.
func ParseWorkload(s string) (Workload, error) {
	spec, err := ParseWorkloadSpec(s)
	if err != nil {
		return nil, err
	}
	return NewWorkload(spec)
}

// params is the typed view a spec factory reads its WorkloadSpec through:
// each getter consumes one key, parse failures latch the first error, and
// finish() rejects keys no getter consumed — so a misspelled parameter
// fails with the kernel's accepted-key list instead of silently running a
// default configuration. A factory holds it by value on its stack, so
// reading a spec allocates nothing beyond the workload it builds.
type params struct {
	spec  WorkloadSpec
	keys  [maxParams]string // accepted keys, in getter call order
	nkeys int
	found int // how many of the accepted keys the spec sets
	err   error
}

// maxParams bounds the keys one factory reads; a factory reading more is a
// bug, and its getter panics with an index out of range.
const maxParams = 8

func (p *params) raw(key string) (string, bool) {
	p.keys[p.nkeys] = key
	p.nkeys++
	v, ok := p.spec.Params[key]
	if ok {
		p.found++
	}
	return v, ok
}

func (p *params) fail(key, value, want string) {
	if p.err == nil {
		p.err = fmt.Errorf("parameter %s=%q: want %s", key, value, want)
	}
}

// str returns the string parameter or def when absent.
func (p *params) str(key, def string) string {
	if v, ok := p.raw(key); ok {
		return v
	}
	return def
}

// integer returns the int parameter or def when absent.
func (p *params) integer(key string, def int) int {
	v, ok := p.raw(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		p.fail(key, v, "an integer")
		return def
	}
	return n
}

// boolean returns the bool parameter or def when absent.
func (p *params) boolean(key string, def bool) bool {
	v, ok := p.raw(key)
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		p.fail(key, v, "a boolean (true/false)")
		return def
	}
	return b
}

// finish reports the first parse failure, or an unknown-key error listing
// the kernel's accepted keys.
func (p *params) finish() error {
	if p.err != nil {
		return p.err
	}
	if p.found == len(p.spec.Params) {
		return nil // every key the spec sets was consumed (getters take distinct keys)
	}
	var unknown []string
	for k := range p.spec.Params {
		if !slices.Contains(p.keys[:p.nkeys], k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("unknown parameter(s) %s (accepted: %s)",
			strings.Join(unknown, ", "), strings.Join(p.keys[:p.nkeys], ", "))
	}
	return nil
}
