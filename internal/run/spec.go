package run

import (
	"bytes"
	"encoding/json"
	"fmt"
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
		var str string
		if err := json.Unmarshal(data, &str); err != nil {
			return err
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
	if strings.ContainsAny(s.Kernel, ":,=") {
		return fmt.Errorf("run: kernel name %q contains a reserved character (':', ',' or '=')", s.Kernel)
	}
	for k, v := range s.Params {
		if k == "" || strings.ContainsAny(k, ",=") {
			return fmt.Errorf("run: workload spec %s: parameter key %q is empty or contains ',' or '='", s.Kernel, k)
		}
		if v == "" || strings.ContainsAny(v, ",=") {
			return fmt.Errorf("run: workload spec %s: parameter %s value %q is empty or contains ',' or '='", s.Kernel, k, v)
		}
	}
	return nil
}

// SpecGrammar is the one-line workload spec grammar, carried by every spec
// error and by the service discovery document.
const SpecGrammar = "kernel[:key=value,key=value,...] or kernel/variant"

// canonicalKernelName normalizes a bare workload name: factory kernel names
// are lowercase and matched case-insensitively, but a name that is not a
// registered kernel is kept verbatim — registered custom workloads (e.g.
// "chase/8MiB") resolve by exact name through the workload registry.
func canonicalKernelName(name string) string {
	lower := strings.ToLower(name)
	if lower == name {
		return name
	}
	if _, ok := lookupKernel(lower); ok {
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
// Factory kernel names are matched case-insensitively (and stored
// lowercase); a name that is not a registered kernel is kept verbatim,
// since registered custom workloads resolve by exact name. Parameter keys
// are lowercased; values keep their case (kernels resolve them
// case-insensitively where that makes sense). The kernel/variant shorthand
// expands through the spec-factory registry: when the prefix names a
// registered kernel with a variant key, the suffix becomes that parameter;
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
		// a registered kernel that declares a variant key — "chase/8MiB" is a
		// legitimate custom workload name.
		if prefix, variant, ok := strings.Cut(kernel, "/"); ok {
			if info, found := lookupKernel(strings.ToLower(prefix)); found && info.info.VariantKey != "" {
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
	for _, kv := range strings.Split(rest, ",") {
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

// SpecFactory builds a Workload from a parsed spec. The factory must reject
// unknown parameter keys (use the params helper) so typos fail loudly
// instead of silently running defaults.
type SpecFactory func(spec WorkloadSpec) (Workload, error)

type kernelEntry struct {
	info  KernelInfo
	build SpecFactory
}

// The process-wide kernel (spec factory) registry, guarded by the same
// mutex as the workload registry — both are read on every service request.
var kernels = map[string]kernelEntry{}

// RegisterSpecFactory adds a kernel to the process-wide spec registry: a
// name → (Params) → Workload constructor, plus the documentation that
// listings and error messages surface. It errors on a nil factory, an empty
// or non-lowercase kernel name, reserved characters, or a duplicate.
func RegisterSpecFactory(info KernelInfo, build SpecFactory) error {
	if build == nil {
		return fmt.Errorf("run: register nil spec factory")
	}
	if info.Kernel == "" {
		return fmt.Errorf("run: register spec factory with empty kernel name")
	}
	if info.Kernel != strings.ToLower(info.Kernel) || strings.ContainsAny(info.Kernel, ":/,= \t") {
		return fmt.Errorf("run: kernel name %q must be lowercase without ':', '/', ',', '=' or spaces", info.Kernel)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := kernels[info.Kernel]; dup {
		return fmt.Errorf("run: kernel %q already registered", info.Kernel)
	}
	kernels[info.Kernel] = kernelEntry{info: info, build: build}
	return nil
}

// MustRegisterSpecFactory is RegisterSpecFactory but panics on error; for
// package init blocks.
func MustRegisterSpecFactory(info KernelInfo, build SpecFactory) {
	if err := RegisterSpecFactory(info, build); err != nil {
		panic(err)
	}
}

func lookupKernel(name string) (kernelEntry, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := kernels[name]
	return e, ok
}

// Kernels lists the registered spec-buildable kernels, sorted by name.
func Kernels() []KernelInfo {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]KernelInfo, 0, len(kernels))
	for _, e := range kernels {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kernel < out[j].Kernel })
	return out
}

// NewWorkload materializes a spec: the kernel's factory builds the workload
// from the parameters. Specs whose kernel is not factory-registered fall
// back to the process-wide workload registry (custom workloads registered
// under a plain name take no parameters). The error for an unknown kernel
// lists the registered kernels, the registered workload names, and the
// grammar — everything needed to fix the request.
func NewWorkload(spec WorkloadSpec) (Workload, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if e, ok := lookupKernel(strings.ToLower(spec.Kernel)); ok {
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
// default configuration.
type params struct {
	spec WorkloadSpec
	used map[string]bool
	keys []string // accepted keys, in getter call order
	err  error
}

func newParams(spec WorkloadSpec) *params {
	return &params{spec: spec, used: map[string]bool{}}
}

func (p *params) raw(key string) (string, bool) {
	p.keys = append(p.keys, key)
	p.used[key] = true
	v, ok := p.spec.Params[key]
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
	var unknown []string
	for k := range p.spec.Params {
		if !p.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("unknown parameter(s) %s (accepted: %s)",
			strings.Join(unknown, ", "), strings.Join(p.keys, ", "))
	}
	return nil
}
