package run

import (
	"context"
	"fmt"
	"strconv"

	"riscvmem/internal/kernels/blur"
	"riscvmem/internal/kernels/stream"
	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/sim"
	"riscvmem/internal/units"
)

// The built-in kernels register spec factories so jobs can arrive as data —
// parsed from the CLI grammar or decoded from JSON — and not only as Go
// values. Each factory validates and normalizes its parameters into the
// kernel's Config; the adapters' CacheKey() is the canonical encoding of
// that Config (see the *Spec functions), so the memoization identity is a
// pinned, order-stable string rather than fmt's struct layout.
func init() {
	MustRegisterSpecFactory(KernelInfo{
		Kernel:     "stream",
		Summary:    "STREAM memory-bandwidth benchmark (§4.1): COPY, SCALE, SUM, TRIAD",
		Params:     "test=COPY|SCALE|SUM|TRIAD, elems=<n>, cores=<n>, reps=<n>, scaleby=<n>",
		VariantKey: "test",
	}, func(spec WorkloadSpec) (Workload, error) {
		p := newParams(spec)
		// Unset measurement knobs stay 0 so the kernel's own defaults
		// (stream.Config.Normalized: reps 3, cores 1, scaleby 1) apply —
		// one source of truth whether the config arrives as data or as Go.
		cfg := stream.Config{
			Elems:   p.integer("elems", 65536),
			Cores:   p.integer("cores", 0),
			Reps:    p.integer("reps", 0),
			ScaleBy: p.integer("scaleby", 0),
		}
		testName := p.str("test", stream.Triad.String())
		if err := p.finish(); err != nil {
			return nil, err
		}
		test, err := stream.TestByName(testName)
		if err != nil {
			return nil, err
		}
		cfg.Test = test
		return Stream(cfg), nil
	})

	MustRegisterSpecFactory(KernelInfo{
		Kernel:     "transpose",
		Summary:    "in-place N×N matrix transposition (§4.2), five optimization variants",
		Params:     "variant=Naive|Parallel|Blocking|Manual_blocking|Dynamic|Cache_oblivious, n=<dim>, block=<tile|0=auto>, verify=<bool>",
		VariantKey: "variant",
	}, func(spec WorkloadSpec) (Workload, error) {
		p := newParams(spec)
		cfg := transpose.Config{
			N:      p.integer("n", 512),
			Block:  p.integer("block", 0),
			Verify: p.boolean("verify", false),
		}
		variantName := p.str("variant", transpose.Naive.String())
		if err := p.finish(); err != nil {
			return nil, err
		}
		variant, err := transpose.VariantByName(variantName)
		if err != nil {
			return nil, err
		}
		cfg.Variant = variant
		return Transpose(cfg), nil
	})

	MustRegisterSpecFactory(KernelInfo{
		Kernel:     "gblur",
		Summary:    "Gaussian blur over a W×H×C float32 image (§4.3), five optimization variants",
		Params:     "variant=Naive|Unit-stride|1D_kernels|Memory|Parallel, w=<px>, h=<px>, c=<channels>, f=<odd filter>, verify=<bool>",
		VariantKey: "variant",
	}, func(spec WorkloadSpec) (Workload, error) {
		p := newParams(spec)
		cfg := blur.Config{
			W:      p.integer("w", 636),
			H:      p.integer("h", 507),
			C:      p.integer("c", 3),
			F:      p.integer("f", 19),
			Verify: p.boolean("verify", false),
		}
		variantName := p.str("variant", blur.Naive.String())
		if err := p.finish(); err != nil {
			return nil, err
		}
		variant, err := blur.VariantByName(variantName)
		if err != nil {
			return nil, err
		}
		cfg.Variant = variant
		return Blur(cfg), nil
	})
}

// StreamSpec is the canonical WorkloadSpec encoding of a STREAM config:
// every Config field appears under a fixed key, so the rendered string is a
// complete, order-stable identity for the measurement (the CacheKey of the
// adapter). The config is normalized first (stream.Config.Normalized), so
// unset-vs-explicit defaults share one identity. A reflection test pins
// that no Config field is left out, and the simlint cachekey analyzer
// enforces the same completeness statically.
//
//simlint:cachekey
func StreamSpec(cfg stream.Config) WorkloadSpec {
	cfg = cfg.Normalized()
	return WorkloadSpec{Kernel: "stream", Params: map[string]string{
		"test":    cfg.Test.String(),
		"elems":   strconv.Itoa(cfg.Elems),
		"cores":   strconv.Itoa(cfg.Cores),
		"reps":    strconv.Itoa(cfg.Reps),
		"scaleby": strconv.Itoa(cfg.ScaleBy),
	}}
}

// TransposeSpec is the canonical WorkloadSpec encoding of a transposition
// config (see StreamSpec).
//
//simlint:cachekey
func TransposeSpec(cfg transpose.Config) WorkloadSpec {
	return WorkloadSpec{Kernel: "transpose", Params: map[string]string{
		"variant": cfg.Variant.String(),
		"n":       strconv.Itoa(cfg.N),
		"block":   strconv.Itoa(cfg.Block),
		"verify":  strconv.FormatBool(cfg.Verify),
	}}
}

// BlurSpec is the canonical WorkloadSpec encoding of a Gaussian-blur config
// (see StreamSpec).
//
//simlint:cachekey
func BlurSpec(cfg blur.Config) WorkloadSpec {
	return WorkloadSpec{Kernel: "gblur", Params: map[string]string{
		"variant": cfg.Variant.String(),
		"w":       strconv.Itoa(cfg.W),
		"h":       strconv.Itoa(cfg.H),
		"c":       strconv.Itoa(cfg.C),
		"f":       strconv.Itoa(cfg.F),
		"verify":  strconv.FormatBool(cfg.Verify),
	}}
}

// Stream adapts one STREAM measurement configuration as a Workload. The
// Result's Cycles/Seconds are the fastest repetition's region time,
// Bandwidth is the benchmark's best (ScaleBy-scaled) figure, and Bytes the
// STREAM-counted traffic of one repetition.
func Stream(cfg stream.Config) Workload {
	return streamWorkload{cfg: cfg, key: StreamSpec(cfg).String()}
}

// The adapters render their CacheKey once, at construction: one workload
// value keys every job of a cross-product, and rendering builds, sorts and
// joins a map.
type streamWorkload struct {
	cfg stream.Config
	key string
}

func (w streamWorkload) Name() string { return "stream/" + w.cfg.Test.String() }

// Spec returns the canonical data encoding of this workload.
func (w streamWorkload) Spec() WorkloadSpec { return StreamSpec(w.cfg) }

// CacheKey is the canonical spec string: order-stable (keys sorted),
// independent of Config's field layout, and pinned by golden tests — the
// memoization identity survives struct refactors that fmt "%+v" keys did
// not.
func (w streamWorkload) CacheKey() string { return w.key }

func (w streamWorkload) Run(ctx context.Context, m *sim.Machine) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	meas, err := stream.RunOn(m, w.cfg)
	if err != nil {
		return Result{}, err
	}
	spec := m.Spec()
	return Result{
		Workload:  w.Name(),
		Device:    spec.Name,
		Cycles:    meas.BestCycles,
		Seconds:   units.Seconds(meas.BestCycles, spec.FreqGHz),
		Bytes:     meas.Bytes,
		Bandwidth: meas.Best,
		Mem:       meas.Mem,
	}, nil
}

// Transpose adapts one in-place transposition configuration as a Workload.
// Bytes is the mandatory 16·N² traffic of the §3.3 utilization metric.
func Transpose(cfg transpose.Config) Workload {
	return transposeWorkload{cfg: cfg, key: TransposeSpec(cfg).String()}
}

type transposeWorkload struct {
	cfg transpose.Config
	key string
}

func (w transposeWorkload) Name() string {
	return fmt.Sprintf("transpose/%s", w.cfg.Variant)
}

// Spec returns the canonical data encoding of this workload.
func (w transposeWorkload) Spec() WorkloadSpec { return TransposeSpec(w.cfg) }

// CacheKey is the canonical spec string (see streamWorkload.CacheKey).
func (w transposeWorkload) CacheKey() string { return w.key }

func (w transposeWorkload) Run(ctx context.Context, m *sim.Machine) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	res, err := transpose.RunOn(m, w.cfg)
	if err != nil {
		return Result{}, err
	}
	bytes := transpose.BytesMoved(res.N)
	return Result{
		Workload:  w.Name(),
		Device:    res.Device,
		Cycles:    res.Cycles,
		Seconds:   res.Seconds,
		Bytes:     bytes,
		Bandwidth: units.Bandwidth(bytes, res.Cycles, m.Spec().FreqGHz),
		Mem:       res.Mem,
	}, nil
}

// Blur adapts one Gaussian-blur configuration as a Workload. Bytes is the
// mandatory separable-blur traffic of the §3.3 utilization metric.
func Blur(cfg blur.Config) Workload {
	return blurWorkload{cfg: cfg, key: BlurSpec(cfg).String()}
}

type blurWorkload struct {
	cfg blur.Config
	key string
}

func (w blurWorkload) Name() string {
	return fmt.Sprintf("gblur/%s", w.cfg.Variant)
}

// Spec returns the canonical data encoding of this workload.
func (w blurWorkload) Spec() WorkloadSpec { return BlurSpec(w.cfg) }

// CacheKey is the canonical spec string (see streamWorkload.CacheKey).
func (w blurWorkload) CacheKey() string { return w.key }

func (w blurWorkload) Run(ctx context.Context, m *sim.Machine) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	res, err := blur.RunOn(m, w.cfg)
	if err != nil {
		return Result{}, err
	}
	bytes := blur.BytesMoved(res.W, res.H, res.C)
	return Result{
		Workload:  w.Name(),
		Device:    res.Device,
		Cycles:    res.Cycles,
		Seconds:   res.Seconds,
		Bytes:     bytes,
		Bandwidth: units.Bandwidth(bytes, res.Cycles, m.Spec().FreqGHz),
		Mem:       res.Mem,
	}, nil
}
