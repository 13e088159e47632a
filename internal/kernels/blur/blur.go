// Package blur implements the paper's Gaussian Blur study (§4.3): five
// implementations of a discrete convolution over a multi-channel float32
// image, from the naive 2D-kernel loop nest to the separable, memory-ordered,
// parallel version.
//
// The variants track the paper's Listings 4–5 and Fig. 4–5:
//
//	Naive       2D kernel, channel loop outside the filter loops
//	Unit-stride 2D kernel, channel loop innermost (unit-stride reads)
//	1D_kernels  two separable 1D passes (O(F) instead of O(F²))
//	Memory      1D passes restructured so each kernel tap streams a whole
//	            row (the loop order GCC vectorizes on x86/ARM)
//	Parallel    Memory + OpenMP-style row parallelism
//
// Every variant computes the same interior convolution and is verified
// against a plain Go reference implementation.
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//
//simlint:deterministic
package blur

import (
	"fmt"
	"math"
	"strings"

	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
)

// Variant names one of the paper's five implementations.
type Variant int

// The five implementations of Fig. 6, in presentation order.
const (
	Naive Variant = iota
	UnitStride
	OneD
	Memory
	Parallel
)

// Variants lists all five in figure order.
func Variants() []Variant { return []Variant{Naive, UnitStride, OneD, Memory, Parallel} }

// VariantByName resolves a variant from its figure label,
// case-insensitively; the error for an unknown name lists the valid ones.
func VariantByName(name string) (Variant, error) {
	for _, v := range Variants() {
		if strings.EqualFold(name, v.String()) {
			return v, nil
		}
	}
	valid := make([]string, 0, len(Variants()))
	for _, v := range Variants() {
		valid = append(valid, v.String())
	}
	return 0, fmt.Errorf("blur: unknown variant %q (valid: %s)", name, strings.Join(valid, ", "))
}

// String returns the paper's label.
func (v Variant) String() string {
	switch v {
	case Naive:
		return "Naive"
	case UnitStride:
		return "Unit-stride"
	case OneD:
		return "1D_kernels"
	case Memory:
		return "Memory"
	case Parallel:
		return "Parallel"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Kernel1D returns the normalized 1D Gaussian filter of odd size f with the
// conventional σ = f/6 (±3σ support).
func Kernel1D(f int) []float32 {
	sigma := float64(f) / 6.0
	k := make([]float32, f)
	mid := f / 2
	var sum float64
	for i := range k {
		x := float64(i - mid)
		v := math.Exp(-x * x / (2 * sigma * sigma))
		k[i] = float32(v)
		sum += v
	}
	for i := range k {
		k[i] = float32(float64(k[i]) / sum)
	}
	return k
}

// Kernel2D returns the separable product kernel k1ᵀ·k1 (Eq. 1).
func Kernel2D(k1 []float32) []float32 {
	f := len(k1)
	k2 := make([]float32, f*f)
	for i := 0; i < f; i++ {
		for j := 0; j < f; j++ {
			k2[i*f+j] = k1[i] * k1[j]
		}
	}
	return k2
}

// Config describes one run.
type Config struct {
	W, H, C int // image width, height, channels (paper: 2544×2027×3)
	F       int // odd filter size (paper: 19)
	Variant Variant
	// Verify compares the interior against a host-side reference (within a
	// tolerance covering the separable variants' reassociated sums).
	Verify bool
}

// Result is one measured run.
type Result struct {
	Config
	Device  string
	Cycles  float64
	Seconds float64
	// Mem summarizes the machine's memory-system activity during the run.
	Mem sim.Summary
}

// BytesMoved returns the minimum DRAM↔CPU traffic of a separable blur over
// a W×H×C float32 image — read src, write tmp, read tmp, write dst — the
// numerator the §3.3 utilization metric uses for Fig. 7.
func BytesMoved(w, h, c int) int64 { return 16 * int64(w) * int64(h) * int64(c) }

// Run executes one blur variant on a fresh simulated machine.
func Run(spec machine.Spec, cfg Config) (Result, error) {
	m, err := sim.New(spec)
	if err != nil {
		return Result{}, err
	}
	return RunOn(m, cfg)
}

// RunOn executes one blur variant on the given machine, which must be in its
// power-on state (freshly constructed or Reset) — the pooled-runner entry
// point that skips per-run Machine construction.
func RunOn(m *sim.Machine, cfg Config) (Result, error) {
	spec := m.Spec()
	if cfg.W <= 0 || cfg.H <= 0 || cfg.C <= 0 {
		return Result{}, fmt.Errorf("blur: bad image %dx%dx%d", cfg.W, cfg.H, cfg.C)
	}
	if cfg.F <= 0 || cfg.F%2 == 0 || cfg.F >= cfg.W || cfg.F >= cfg.H {
		return Result{}, fmt.Errorf("blur: bad filter size %d for %dx%d", cfg.F, cfg.W, cfg.H)
	}
	w, h, ch, f := cfg.W, cfg.H, cfg.C, cfg.F
	wc := w * ch
	src, err := m.NewF32(h * wc)
	if err != nil {
		return Result{}, err
	}
	dst, err := m.NewF32(h * wc)
	if err != nil {
		return Result{}, err
	}
	// Deterministic pseudo-image, intensities in [0,1).
	state := uint32(0x9e3779b9)
	for i := range src.Data {
		state = state*1664525 + 1013904223
		src.Data[i] = float32(state>>8) / float32(1<<24)
	}
	k1 := Kernel1D(f)
	k2 := Kernel2D(k1)

	var res sim.Result
	switch cfg.Variant {
	case Naive:
		res = m.RunSeq(func(c *sim.Core) { naive(c, src, dst, k2, w, h, ch, f) })
	case UnitStride:
		res = m.RunSeq(func(c *sim.Core) { unitStride(c, src, dst, k2, w, h, ch, f) })
	case OneD:
		tmp, terr := m.NewF32(h * wc)
		if terr != nil {
			return Result{}, terr
		}
		res = m.RunSeq(func(c *sim.Core) { oneD(c, src, tmp, dst, k1, w, h, ch, f) })
	case Memory, Parallel:
		tmp, terr := m.NewF32(h * wc)
		if terr != nil {
			return Result{}, terr
		}
		cores := 1
		if cfg.Variant == Parallel {
			cores = spec.Cores
		}
		res = memoryOrdered(m, src, tmp, dst, k1, w, h, ch, f, cores)
	default:
		return Result{}, fmt.Errorf("blur: unknown variant %d", int(cfg.Variant))
	}

	out := Result{Config: cfg, Device: spec.Name, Cycles: res.Cycles,
		Seconds: res.Seconds(spec), Mem: m.Stats()}
	if cfg.Verify {
		if err := verify(src.Data, dst.Data, k2, w, h, ch, f); err != nil {
			return out, fmt.Errorf("blur: %v: %w", cfg.Variant, err)
		}
	}
	return out, nil
}

// elementwise switches the kernels to the scalar element-by-element path;
// the oracle test flips it to assert the range-API path is bit-identical.
var elementwise = false

// naive is Listing 4: for each output pixel and channel, walk the 2D kernel.
// With interleaved channels the inner reads stride by C elements. The
// kernel-row walk (f strided reads plus their flop/intop charges) goes
// through TouchSpans; the convolution arithmetic runs as plain Go.
func naive(c *sim.Core, src, dst *sim.F32, k2 []float32, w, h, ch, f int) {
	mid := f / 2
	wc := w * ch
	span := [1]sim.Span{{Stride: int64(ch) * 4, Bytes: 4}}
	post := [2]float64{c.Flop32Cycles(2), c.IntCycles(2)}
	for i := 0; i <= h-f; i++ {
		for j := 0; j <= w-f; j++ {
			for cc := 0; cc < ch; cc++ {
				var sum float32
				for iF := 0; iF < f; iF++ {
					posI := (i + iF) * wc
					if elementwise {
						for jF := 0; jF < f; jF++ {
							posJ := (j+jF)*ch + cc
							sum += src.Load(c, posI+posJ) * k2[iF*f+jF]
							c.Flops32(2)
							c.IntOps(2)
						}
						continue
					}
					base := posI + j*ch + cc
					span[0].Addr = src.Addr(base)
					c.TouchSpans(f, span[:], post[:])
					for jF := 0; jF < f; jF++ {
						sum += src.Data[base+jF*ch] * k2[iF*f+jF]
					}
				}
				dst.Store(c, (i+mid)*wc+(j+mid)*ch+cc, sum)
			}
		}
	}
}

// unitStride moves the channel loop inside the kernel walk (Fig. 4, right):
// the innermost reads sweep consecutive floats — a natural TouchSpans burst.
func unitStride(c *sim.Core, src, dst *sim.F32, k2 []float32, w, h, ch, f int) {
	mid := f / 2
	wc := w * ch
	sums := make([]float32, ch)
	span := [1]sim.Span{{Stride: 4, Bytes: 4}}
	post := [2]float64{c.Flop32Cycles(2), c.IntCycles(1)}
	for i := 0; i <= h-f; i++ {
		for j := 0; j <= w-f; j++ {
			clear(sums)
			for iF := 0; iF < f; iF++ {
				posI := (i + iF) * wc
				for jF := 0; jF < f; jF++ {
					base := posI + (j+jF)*ch
					kv := k2[iF*f+jF]
					if elementwise {
						for cc := 0; cc < ch; cc++ {
							sums[cc] += src.Load(c, base+cc) * kv
							c.Flops32(2)
							c.IntOps(1)
						}
						continue
					}
					span[0].Addr = src.Addr(base)
					c.TouchSpans(ch, span[:], post[:])
					for cc := 0; cc < ch; cc++ {
						sums[cc] += src.Data[base+cc] * kv
					}
				}
			}
			for cc := 0; cc < ch; cc++ {
				dst.Store(c, (i+mid)*wc+(j+mid)*ch+cc, sums[cc])
			}
		}
	}
}

// oneD applies two separable 1D kernels (Fig. 5, bottom): a vertical pass
// into tmp, then a horizontal pass into dst. Per-pixel kernel walks keep the
// access pattern of Listing 4's structure (the "excessive memory access" the
// Memory variant then fixes).
func oneD(c *sim.Core, src, tmp, dst *sim.F32, k1 []float32, w, h, ch, f int) {
	mid := f / 2
	wc := w * ch
	span := [1]sim.Span{}
	post := [2]float64{c.Flop32Cycles(2), c.IntCycles(2)}
	// Vertical: tmp[i+mid][j] = Σ src[i+iF][j]·k1[iF], every column. The
	// kernel walk strides a full row between taps.
	for i := 0; i <= h-f; i++ {
		for j := 0; j < wc; j++ {
			var sum float32
			if elementwise {
				for iF := 0; iF < f; iF++ {
					sum += src.Load(c, (i+iF)*wc+j) * k1[iF]
					c.Flops32(2)
					c.IntOps(2)
				}
			} else {
				base := i*wc + j
				span[0] = sim.Span{Addr: src.Addr(base), Stride: int64(wc) * 4, Bytes: 4}
				c.TouchSpans(f, span[:], post[:])
				for iF := 0; iF < f; iF++ {
					sum += src.Data[base+iF*wc] * k1[iF]
				}
			}
			tmp.Store(c, (i+mid)*wc+j, sum)
		}
	}
	// Horizontal: dst[i][j+mid] = Σ tmp[i][j+jF]·k1[jF].
	for i := mid; i < h-f+1+mid; i++ {
		for j := 0; j <= w-f; j++ {
			for cc := 0; cc < ch; cc++ {
				var sum float32
				if elementwise {
					for jF := 0; jF < f; jF++ {
						sum += tmp.Load(c, i*wc+(j+jF)*ch+cc) * k1[jF]
						c.Flops32(2)
						c.IntOps(2)
					}
				} else {
					base := i*wc + j*ch + cc
					span[0] = sim.Span{Addr: tmp.Addr(base), Stride: int64(ch) * 4, Bytes: 4}
					c.TouchSpans(f, span[:], post[:])
					for jF := 0; jF < f; jF++ {
						sum += tmp.Data[base+jF*ch] * k1[jF]
					}
				}
				dst.Store(c, i*wc+(j+mid)*ch+cc, sum)
			}
		}
	}
}

// memoryOrdered is Listing 5 extended to both passes: each kernel tap
// streams an entire row, so every inner loop is long and unit-stride — the
// shape compilers vectorize (c.Vec is set; a no-op on the scalar RISC-V
// presets). cores > 1 parallelizes over rows (the Parallel variant).
func memoryOrdered(m *sim.Machine, src, tmp, dst *sim.F32, k1 []float32, w, h, ch, f, cores int) sim.Result {
	mid := f / 2
	wc := w * ch
	rowsV := h - f + 1
	// Vertical accumulation pass. Each tap streams whole rows: the three
	// interleaved streams (read-accumulate tmp, read src, write tmp) are
	// one TouchSpans batch per row.
	r1 := m.ParallelFor(cores, rowsV, sim.Static, 0, func(c *sim.Core, i int) {
		c.Vec = true
		out := (i + mid) * wc
		for iF := 0; iF < f; iF++ {
			posI := (i + iF) * wc
			kv := k1[iF]
			if elementwise {
				for j := 0; j < wc; j++ {
					acc := tmp.Load(c, out+j)
					if iF == 0 {
						acc = 0
					}
					tmp.Store(c, out+j, acc+src.Load(c, posI+j)*kv)
					c.Flops32(2)
					c.IntOps(1)
				}
				continue
			}
			spans := [3]sim.Span{
				{Addr: tmp.Addr(out), Stride: 4, Bytes: 4},
				{Addr: src.Addr(posI), Stride: 4, Bytes: 4},
				{Addr: tmp.Addr(out), Stride: 4, Bytes: 4, Write: true},
			}
			post := [2]float64{c.Flop32Cycles(2), c.IntCycles(1)}
			c.TouchSpans(wc, spans[:], post[:])
			if iF == 0 {
				for j := 0; j < wc; j++ {
					tmp.Data[out+j] = src.Data[posI+j] * kv
				}
			} else {
				for j := 0; j < wc; j++ {
					tmp.Data[out+j] += src.Data[posI+j] * kv
				}
			}
		}
	})
	// Horizontal accumulation pass over the rows the vertical pass filled.
	r2 := m.ParallelFor(cores, rowsV, sim.Static, 0, func(c *sim.Core, ri int) {
		c.Vec = true
		i := ri + mid
		row := i * wc
		span := (w - f + 1) * ch
		for jF := 0; jF < f; jF++ {
			kv := k1[jF]
			off := jF * ch
			if elementwise {
				for j := 0; j < span; j++ {
					acc := dst.Load(c, row+mid*ch+j)
					if jF == 0 {
						acc = 0
					}
					dst.Store(c, row+mid*ch+j, acc+tmp.Load(c, row+off+j)*kv)
					c.Flops32(2)
					c.IntOps(1)
				}
				continue
			}
			spans := [3]sim.Span{
				{Addr: dst.Addr(row + mid*ch), Stride: 4, Bytes: 4},
				{Addr: tmp.Addr(row + off), Stride: 4, Bytes: 4},
				{Addr: dst.Addr(row + mid*ch), Stride: 4, Bytes: 4, Write: true},
			}
			post := [2]float64{c.Flop32Cycles(2), c.IntCycles(1)}
			c.TouchSpans(span, spans[:], post[:])
			if jF == 0 {
				for j := 0; j < span; j++ {
					dst.Data[row+mid*ch+j] = tmp.Data[row+off+j] * kv
				}
			} else {
				for j := 0; j < span; j++ {
					dst.Data[row+mid*ch+j] += tmp.Data[row+off+j] * kv
				}
			}
		}
	})
	return sim.Result{Cycles: r1.Cycles + r2.Cycles}
}

// Reference computes the interior convolution in plain Go (no simulation).
func Reference(src []float32, k2 []float32, w, h, ch, f int) []float32 {
	mid := f / 2
	wc := w * ch
	out := make([]float32, h*wc)
	for i := 0; i <= h-f; i++ {
		for j := 0; j <= w-f; j++ {
			for cc := 0; cc < ch; cc++ {
				var sum float32
				for iF := 0; iF < f; iF++ {
					for jF := 0; jF < f; jF++ {
						sum += src[(i+iF)*wc+(j+jF)*ch+cc] * k2[iF*f+jF]
					}
				}
				out[(i+mid)*wc+(j+mid)*ch+cc] = sum
			}
		}
	}
	return out
}

// verify checks dst's interior against the reference within a tolerance
// that covers the separable variants' different summation order.
func verify(src, dst, k2 []float32, w, h, ch, f int) error {
	want := Reference(src, k2, w, h, ch, f)
	mid := f / 2
	wc := w * ch
	for i := mid; i <= h-f+mid; i++ {
		for j := mid; j <= w-f+mid; j++ {
			for cc := 0; cc < ch; cc++ {
				g, e := dst[i*wc+j*ch+cc], want[i*wc+j*ch+cc]
				if diff := math.Abs(float64(g - e)); diff > 1e-4 {
					return fmt.Errorf("pixel (%d,%d,%d): got %v want %v", i, j, cc, g, e)
				}
			}
		}
	}
	return nil
}
