// Package stream implements the STREAM memory-bandwidth benchmark (§4.1 of
// the paper; McCalpin 1995) against the simulator.
//
// The four tests move different byte counts per iteration:
//
//	COPY   a[i] = b[i]            16 B/iter, 0 FLOP
//	SCALE  a[i] = d·b[i]          16 B/iter, 1 FLOP
//	SUM    a[i] = b[i] + c[i]     24 B/iter, 1 FLOP
//	TRIAD  a[i] = b[i] + d·c[i]   24 B/iter, 2 FLOP
//
// Bandwidth is counted the STREAM way — bytes the *kernel* logically moves,
// not the (larger) write-allocate traffic the hierarchy generates. Following
// the paper's method, a measurement targets one memory level by sizing the
// arrays to fit that level but not the faster ones, runs multi-threaded for
// shared resources or sequential-×-cores for private ones, repeats, and
// keeps the maximum.
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//
//simlint:deterministic
package stream

import (
	"fmt"
	"strings"

	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
	"riscvmem/internal/units"
)

// Test is one of the four STREAM kernels.
type Test int

// The four STREAM tests.
const (
	Copy Test = iota
	Scale
	Sum
	Triad
)

// Tests lists all four in the order STREAM reports them.
func Tests() []Test { return []Test{Copy, Scale, Sum, Triad} }

// TestByName resolves a STREAM test from its name, case-insensitively; the
// error for an unknown name lists the valid ones.
func TestByName(name string) (Test, error) {
	for _, t := range Tests() {
		if strings.EqualFold(name, t.String()) {
			return t, nil
		}
	}
	valid := make([]string, 0, len(Tests()))
	for _, t := range Tests() {
		valid = append(valid, t.String())
	}
	return 0, fmt.Errorf("stream: unknown test %q (valid: %s)", name, strings.Join(valid, ", "))
}

// String returns the STREAM name of the test.
func (t Test) String() string {
	switch t {
	case Copy:
		return "COPY"
	case Scale:
		return "SCALE"
	case Sum:
		return "SUM"
	case Triad:
		return "TRIAD"
	}
	return fmt.Sprintf("Test(%d)", int(t))
}

// BytesPerIter returns the bytes STREAM counts for one iteration.
func (t Test) BytesPerIter() int64 {
	if t == Sum || t == Triad {
		return 24
	}
	return 16
}

// FlopsPerIter returns the floating-point operations per iteration.
func (t Test) FlopsPerIter() int {
	switch t {
	case Copy:
		return 0
	case Triad:
		return 2
	default:
		return 1
	}
}

// Config describes one measurement.
type Config struct {
	Test Test
	// Elems is the per-array element count (three arrays are allocated so
	// SUM/TRIAD have their inputs).
	Elems int
	// Cores is the number of threads; 1 runs sequentially.
	Cores int
	// Reps is the number of timed repetitions; the best is kept. 0 → 3.
	Reps int
	// ScaleBy multiplies the reported bandwidth (the paper multiplies
	// sequential per-core results by the core count for private levels).
	// 0 → 1.
	ScaleBy int
}

// Normalized returns the config with the documented defaults applied
// (Reps 0→3, Cores 0→1, ScaleBy 0→1) — the exact clamping RunOn performs
// before measuring. The canonical spec encoding (run's streamKey) keys the
// memo cache on the normalized form, so a config with an unset field and
// one with the default set explicitly share a single cache identity.
func (c Config) Normalized() Config {
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.ScaleBy <= 0 {
		c.ScaleBy = 1
	}
	return c
}

// Measurement is the outcome of one Run.
type Measurement struct {
	Config
	Device string
	// Best is the maximum bandwidth over the repetitions, scaled by ScaleBy.
	Best units.BytesPerSec
	// BestCycles is the region wall time (core cycles) of the fastest
	// repetition — the one Best was derived from.
	BestCycles float64
	// Bytes is the STREAM-counted logical traffic of one repetition.
	Bytes int64
	// PerRep records each repetition's (unscaled) bandwidth.
	PerRep []units.BytesPerSec
	// Mem summarizes the machine's memory-system activity (all passes).
	Mem sim.Summary
}

// RunOn executes one STREAM measurement on the given machine, which must be
// in its power-on state (freshly constructed or Reset by the runner's pool).
func RunOn(m *sim.Machine, cfg Config) (Measurement, error) {
	if cfg.Elems <= 0 {
		return Measurement{}, fmt.Errorf("stream: non-positive array size %d", cfg.Elems)
	}
	cfg = cfg.Normalized()
	spec := m.Spec()
	n := cfg.Elems
	a, err := m.NewF64(n)
	if err != nil {
		return Measurement{}, err
	}
	b, err := m.NewF64(n)
	if err != nil {
		return Measurement{}, err
	}
	cArr, err := m.NewF64(n)
	if err != nil {
		return Measurement{}, err
	}
	for i := 0; i < n; i++ { // host-side init: untimed, like STREAM's setup
		b.Data[i] = float64(i%97) * 0.5
		cArr.Data[i] = float64(i%89) * 0.25
	}
	const d = 3.0

	// Timing runs through the bulk range API: per chunk, TouchSpans charges
	// the interleaved element accesses (load b[i], [load c[i],] store a[i],
	// flops, intops — the exact order of the scalar loop) line-granularly,
	// and the arithmetic itself runs as a plain Go loop. The oracle test
	// holds it to that scalar loop.
	body := func(c *sim.Core, lo, hi int) {
		// STREAM loops auto-vectorize on toolchains that support it; the
		// flag is a no-op on the scalar RISC-V presets.
		c.Vec = true
		cnt := hi - lo
		if cnt <= 0 {
			return
		}
		spans := make([]sim.Span, 0, 3)
		switch cfg.Test {
		case Sum, Triad:
			spans = append(spans,
				sim.Span{Addr: b.Addr(lo), Stride: 8, Bytes: 8},
				sim.Span{Addr: cArr.Addr(lo), Stride: 8, Bytes: 8},
				sim.Span{Addr: a.Addr(lo), Stride: 8, Bytes: 8, Write: true})
		default:
			spans = append(spans,
				sim.Span{Addr: b.Addr(lo), Stride: 8, Bytes: 8},
				sim.Span{Addr: a.Addr(lo), Stride: 8, Bytes: 8, Write: true})
		}
		post := make([]float64, 0, 2)
		if f := cfg.Test.FlopsPerIter(); f > 0 {
			post = append(post, c.FlopCycles(float64(f)))
		}
		post = append(post, c.IntCycles(1))
		c.TouchSpans(cnt, spans, post)
		switch cfg.Test {
		case Copy:
			copy(a.Data[lo:hi], b.Data[lo:hi])
		case Scale:
			for i := lo; i < hi; i++ {
				a.Data[i] = d * b.Data[i]
			}
		case Sum:
			for i := lo; i < hi; i++ {
				a.Data[i] = b.Data[i] + cArr.Data[i]
			}
		case Triad:
			for i := lo; i < hi; i++ {
				a.Data[i] = b.Data[i] + d*cArr.Data[i]
			}
		}
	}
	meas := Measurement{Config: cfg, Device: spec.Name}
	bytes := cfg.Test.BytesPerIter() * int64(n)
	meas.Bytes = bytes
	m.ParallelRange(cfg.Cores, n, sim.Static, 0, body) // warm-up pass (untimed)
	for r := 0; r < cfg.Reps; r++ {
		res := m.ParallelRange(cfg.Cores, n, sim.Static, 0, body)
		bw := units.Bandwidth(bytes, res.Cycles, spec.FreqGHz)
		meas.PerRep = append(meas.PerRep, bw)
		if scaled := units.BytesPerSec(float64(bw) * float64(cfg.ScaleBy)); scaled > meas.Best {
			meas.Best = scaled
			meas.BestCycles = res.Cycles
		}
	}

	// Functional spot-check: the simulator must have really computed the
	// kernel (guards against timing-only regressions).
	probe := n / 2
	var want float64
	switch cfg.Test {
	case Copy:
		want = b.Data[probe]
	case Scale:
		want = d * b.Data[probe]
	case Sum:
		want = b.Data[probe] + cArr.Data[probe]
	case Triad:
		want = b.Data[probe] + d*cArr.Data[probe]
	}
	if a.Data[probe] != want {
		return Measurement{}, fmt.Errorf("stream: %v result corrupt: a[%d]=%v want %v",
			cfg.Test, probe, a.Data[probe], want)
	}
	meas.Mem = m.Stats()
	return meas, nil
}

// Level targets one memory level of a device, sized per the paper's method.
type Level struct {
	Name string
	// Elems is the per-array element count.
	Elems int
	// Cores used for the measurement and the sequential-result multiplier.
	Cores   int
	ScaleBy int
}

// Levels derives the measurable memory levels of a device. scale divides
// the DRAM working set (the cache-level sizes are fixed by the hardware
// geometry and never scaled).
func Levels(spec machine.Spec, scale int) []Level {
	if scale < 1 {
		scale = 1
	}
	var out []Level
	// L1 is per-core: run sequentially, multiply by core count. Three
	// arrays must fit: use 1/8 of capacity each.
	l1 := spec.Mem.L1.Size / 8 / 8
	out = append(out, Level{Name: "L1", Elems: int(l1), Cores: 1, ScaleBy: spec.Cores})

	lastCap := spec.Mem.L1.Size
	if spec.Mem.L2 != nil {
		elems := spec.Mem.L2.Cache.Size / 4 / 8
		lv := Level{Name: "L2", Elems: int(elems)}
		if spec.Mem.L2.Shared {
			lv.Cores, lv.ScaleBy = spec.Cores, 1
		} else {
			lv.Cores, lv.ScaleBy = 1, spec.Cores
		}
		out = append(out, lv)
		lastCap = spec.Mem.L2.Cache.Size
		if !spec.Mem.L2.Shared {
			lastCap *= int64(spec.Cores)
		}
	}
	if spec.Mem.L3 != nil {
		elems := spec.Mem.L3.Cache.Size / 6 / 8
		out = append(out, Level{Name: "L3", Elems: int(elems), Cores: spec.Cores, ScaleBy: 1})
		lastCap = spec.Mem.L3.Cache.Size
	}
	// DRAM: arrays well beyond the last cache level, shared across cores.
	dramBytes := 4 * lastCap
	if dramBytes < int64(units.MiB) {
		dramBytes = int64(units.MiB)
	}
	dramBytes /= int64(scale)
	if min := 8 * lastCap / 3; dramBytes < min {
		dramBytes = min // keep ≥ 2.67× LLC per array even at high scale
	}
	out = append(out, Level{Name: "DRAM", Elems: int(dramBytes / 8), Cores: spec.Cores, ScaleBy: 1})
	return out
}
