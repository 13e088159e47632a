package run

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"riscvmem/internal/kernels/blur"
	"riscvmem/internal/kernels/stream"
	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
	"riscvmem/internal/units"
)

// kernels is the fixed table of spec-buildable kernels, so jobs can arrive
// as data — parsed from the CLI grammar or decoded from JSON — and not only
// as Go values. Each factory validates and normalizes its parameters into
// the kernel's Config; the adapters' CacheKey() is the canonical encoding
// of that Config (see the *Key functions), so the memoization identity is
// a pinned, order-stable string rather than fmt's struct layout. Names are
// lowercase without grammar metacharacters.
var kernels = map[string]kernelEntry{
	"stream": {KernelInfo{
		Kernel:     "stream",
		Summary:    "STREAM memory-bandwidth benchmark (§4.1): COPY, SCALE, SUM, TRIAD",
		Params:     "test=COPY|SCALE|SUM|TRIAD, elems=<n>, cores=<n>, reps=<n>, scaleby=<n>",
		VariantKey: "test",
	}, func(spec WorkloadSpec) (Workload, error) {
		p := params{spec: spec}
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
	}},

	"transpose": {KernelInfo{
		Kernel:     "transpose",
		Summary:    "in-place N×N matrix transposition (§4.2), five optimization variants",
		Params:     "variant=Naive|Parallel|Blocking|Manual_blocking|Dynamic|Cache_oblivious, n=<dim>, block=<tile|0=auto>, verify=<bool>",
		VariantKey: "variant",
	}, func(spec WorkloadSpec) (Workload, error) {
		p := params{spec: spec}
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
	}},

	"gblur": {KernelInfo{
		Kernel:     "gblur",
		Summary:    "Gaussian blur over a W×H×C float32 image (§4.3), five optimization variants",
		Params:     "variant=Naive|Unit-stride|1D_kernels|Memory|Parallel, w=<px>, h=<px>, c=<channels>, f=<odd filter>, verify=<bool>",
		VariantKey: "variant",
	}, func(spec WorkloadSpec) (Workload, error) {
		p := params{spec: spec}
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
	}},
}

// streamKey is the canonical encoding of a STREAM config, and so the
// adapter's CacheKey: the spec grammar with every Config field under a
// fixed key, keys in sorted order, exactly as WorkloadSpec.String renders
// the spec it parses to. It appends into one stack buffer, so a key costs
// one allocation. The config is normalized first (stream.Config.Normalized),
// so unset-vs-explicit defaults share one identity. A test pins that the
// key parses to one parameter per Config field and re-renders to itself;
// the simlint cachekey analyzer checks statically that every field is read.
//
//simlint:cachekey
func streamKey(cfg stream.Config) string {
	cfg = cfg.Normalized()
	var buf [128]byte
	b := append(buf[:0], "stream:cores="...)
	b = strconv.AppendInt(b, int64(cfg.Cores), 10)
	b = append(b, ",elems="...)
	b = strconv.AppendInt(b, int64(cfg.Elems), 10)
	b = append(b, ",reps="...)
	b = strconv.AppendInt(b, int64(cfg.Reps), 10)
	b = append(b, ",scaleby="...)
	b = strconv.AppendInt(b, int64(cfg.ScaleBy), 10)
	b = append(b, ",test="...)
	b = append(b, cfg.Test.String()...)
	return string(b)
}

// transposeKey is the canonical encoding of a transposition config (see
// streamKey).
//
//simlint:cachekey
func transposeKey(cfg transpose.Config) string {
	var buf [128]byte
	b := append(buf[:0], "transpose:block="...)
	b = strconv.AppendInt(b, int64(cfg.Block), 10)
	b = append(b, ",n="...)
	b = strconv.AppendInt(b, int64(cfg.N), 10)
	b = append(b, ",variant="...)
	b = append(b, cfg.Variant.String()...)
	b = append(b, ",verify="...)
	b = strconv.AppendBool(b, cfg.Verify)
	return string(b)
}

// blurKey is the canonical encoding of a Gaussian-blur config (see
// streamKey).
//
//simlint:cachekey
func blurKey(cfg blur.Config) string {
	var buf [128]byte
	b := append(buf[:0], "gblur:c="...)
	b = strconv.AppendInt(b, int64(cfg.C), 10)
	b = append(b, ",f="...)
	b = strconv.AppendInt(b, int64(cfg.F), 10)
	b = append(b, ",h="...)
	b = strconv.AppendInt(b, int64(cfg.H), 10)
	b = append(b, ",variant="...)
	b = append(b, cfg.Variant.String()...)
	b = append(b, ",verify="...)
	b = strconv.AppendBool(b, cfg.Verify)
	b = append(b, ",w="...)
	b = strconv.AppendInt(b, int64(cfg.W), 10)
	return string(b)
}

// Stream adapts one STREAM measurement configuration as a Workload. The
// Result's Cycles/Seconds are the fastest repetition's region time,
// Bandwidth is the benchmark's best (ScaleBy-scaled) figure, and Bytes the
// STREAM-counted traffic of one repetition.
func Stream(cfg stream.Config) Workload {
	return streamWorkload{cfg: cfg, name: "stream/" + cfg.Test.String(), key: streamKey(cfg)}
}

// The adapters render their Name and CacheKey once, at construction: one
// workload value names and keys every job of a cross-product.
type streamWorkload struct {
	cfg       stream.Config
	name, key string
}

func (w streamWorkload) Name() string { return w.name }

// CacheKey is the canonical spec string: order-stable (keys sorted),
// independent of Config's field layout, and pinned by golden tests — the
// memoization identity survives struct refactors that fmt "%+v" keys did
// not.
func (w streamWorkload) CacheKey() string { return w.key }

// HostBytes bounds the host memory a run on device allocates: three
// float64 arrays of Elems, no more than the device's RAM admits.
func (w streamWorkload) HostBytes(device machine.Spec) int64 {
	return hostBytes(device, 3*8*float64(w.cfg.Elems), 0)
}

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
	return transposeWorkload{cfg: cfg, name: fmt.Sprintf("transpose/%s", cfg.Variant), key: transposeKey(cfg)}
}

type transposeWorkload struct {
	cfg       transpose.Config
	name, key string
}

func (w transposeWorkload) Name() string { return w.name }

// CacheKey is the canonical spec string (see streamWorkload.CacheKey).
func (w transposeWorkload) CacheKey() string { return w.key }

// HostBytes bounds the host memory a run on device allocates: the N×N
// float64 matrix and, for the variants that stage tiles with an explicit
// Block, a pair of Block² tiles per core, no more than the device's RAM
// admits. An automatic tile pair fits in half of L1 and is left out.
func (w transposeWorkload) HostBytes(device machine.Spec) int64 {
	n, b := float64(w.cfg.N), float64(min(w.cfg.Block, w.cfg.N))
	arrays := 8 * n * n
	if b > 0 && (w.cfg.Variant == transpose.ManualBlocking || w.cfg.Variant == transpose.Dynamic) {
		arrays += float64(2 * 8 * float64(device.Cores) * b * b)
	}
	return hostBytes(device, arrays, 0)
}

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
	return blurWorkload{cfg: cfg, name: fmt.Sprintf("gblur/%s", cfg.Variant), key: blurKey(cfg)}
}

type blurWorkload struct {
	cfg       blur.Config
	name, key string
}

func (w blurWorkload) Name() string { return w.name }

// CacheKey is the canonical spec string (see streamWorkload.CacheKey).
func (w blurWorkload) CacheKey() string { return w.key }

// HostBytes bounds the host memory a run on device allocates: W×H×C
// float32 source and destination images and an intermediate one for the
// separable variants, no more than the device's RAM admits, plus the
// reference image Verify computes outside the simulated RAM.
func (w blurWorkload) HostBytes(device machine.Spec) int64 {
	image := 4 * float64(w.cfg.W) * float64(w.cfg.H) * float64(w.cfg.C)
	images, host := 2.0, 0.0
	if w.cfg.Variant != blur.Naive && w.cfg.Variant != blur.UnitStride {
		images++
	}
	if w.cfg.Verify {
		host = image
	}
	return hostBytes(device, float64(images*image), host)
}

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

// hostBytes bounds the host memory of a run on device whose simulated
// arrays take arrays bytes and which allocates host bytes beside them. The
// simulator makes an array's host slice only once the device's RAM
// admitted it, so the arrays count for no more than that RAM. The sizes
// are float64 because the parameters come from outside and their product
// can overflow int64; the sum saturates.
func hostBytes(device machine.Spec, arrays, host float64) int64 {
	if f := min(arrays, float64(device.RAMBytes)) + host; f < math.MaxInt64 {
		return int64(f)
	}
	return math.MaxInt64
}
