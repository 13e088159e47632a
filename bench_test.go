// Benchmarks regenerating every figure of the paper's evaluation section.
// Each benchmark runs the corresponding experiment on the simulated devices
// and reports the figure's numbers as custom metrics (simulated seconds,
// GB/s, utilization) — the benchmark's own wall-clock time is just the cost
// of simulation. Scale 16 keeps a full `go test -bench=.` run in minutes;
// cmd/paperfigs -full reproduces paper-scale sizes.
package riscvmem_test

import (
	"fmt"
	"testing"

	"riscvmem"
	"riscvmem/internal/hier"
	"riscvmem/internal/kernels/transpose"
)

const benchScale = 16

// BenchmarkFig1Stream regenerates Fig. 1: STREAM bandwidth per device and
// memory level (TRIAD shown; the suite measures all four tests).
func BenchmarkFig1Stream(b *testing.B) {
	for _, dev := range riscvmem.Devices() {
		for _, lv := range riscvmem.StreamLevels(dev, benchScale) {
			b.Run(fmt.Sprintf("%s/%s", dev.Name, lv.Name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m, err := riscvmem.RunStream(dev, riscvmem.StreamConfig{
						Test: riscvmem.StreamTriad, Elems: lv.Elems,
						Cores: lv.Cores, Reps: 1, ScaleBy: lv.ScaleBy,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(m.Best.GBps(), "GB/s")
				}
			})
		}
	}
}

// BenchmarkFig2Transpose regenerates Fig. 2: the five transposition variants
// per device (simulated seconds and speedup over naive as metrics).
func BenchmarkFig2Transpose(b *testing.B) {
	n := riscvmem.PaperMatrixSmall / benchScale
	for _, dev := range riscvmem.Devices() {
		var naive float64
		for _, v := range riscvmem.TransposeVariants() {
			b.Run(fmt.Sprintf("%s/%s", dev.Name, v), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := riscvmem.RunTranspose(dev, riscvmem.TransposeConfig{N: n, Variant: v})
					if err != nil {
						b.Fatal(err)
					}
					if v == riscvmem.TransposeNaive {
						naive = res.Seconds
					}
					b.ReportMetric(res.Seconds, "sim-s")
					if naive > 0 {
						b.ReportMetric(naive/res.Seconds, "speedup")
					}
				}
			})
		}
	}
}

// BenchmarkFig3Utilization regenerates Fig. 3: transpose memory-bandwidth
// utilization (naive and best variant per device).
func BenchmarkFig3Utilization(b *testing.B) {
	suite := riscvmem.NewSuite(riscvmem.Options{Scale: benchScale, Reps: 1})
	b.Run("suite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := suite.Fig3(nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rows {
				if !r.Skipped {
					b.ReportMetric(r.Utilization, fmt.Sprintf("util-%s-N%d-%s", r.Device, r.PaperN, r.Variant))
				}
			}
		}
	})
}

// BenchmarkFig6Blur regenerates Fig. 6: the five Gaussian-blur variants per
// device.
func BenchmarkFig6Blur(b *testing.B) {
	w := riscvmem.PaperImageW / benchScale
	h := riscvmem.PaperImageH / benchScale
	for _, dev := range riscvmem.Devices() {
		var naive float64
		for _, v := range riscvmem.BlurVariants() {
			b.Run(fmt.Sprintf("%s/%s", dev.Name, v), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := riscvmem.RunBlur(dev, riscvmem.BlurConfig{
						W: w, H: h, C: riscvmem.PaperImageC, F: riscvmem.PaperFilter, Variant: v,
					})
					if err != nil {
						b.Fatal(err)
					}
					if v == riscvmem.BlurNaive {
						naive = res.Seconds
					}
					b.ReportMetric(res.Seconds, "sim-s")
					if naive > 0 {
						b.ReportMetric(naive/res.Seconds, "speedup")
					}
				}
			})
		}
	}
}

// BenchmarkFig7BlurUtilization regenerates Fig. 7: blur bandwidth
// utilization for the three optimized variants.
func BenchmarkFig7BlurUtilization(b *testing.B) {
	suite := riscvmem.NewSuite(riscvmem.Options{Scale: benchScale, Reps: 1})
	b.Run("suite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := suite.Fig7(nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rows {
				b.ReportMetric(r.Utilization, fmt.Sprintf("util-%s-%s", r.Device, r.Variant))
			}
		}
	})
}

// BenchmarkAblationPrefetch isolates the Fig. 6 "Unit-stride" anomaly: the
// VisionFive's aggressive prefetcher on its starved memory channel. The
// same streaming blur runs with and without the hardware prefetcher.
func BenchmarkAblationPrefetch(b *testing.B) {
	run := func(b *testing.B, dev riscvmem.Device) {
		for i := 0; i < b.N; i++ {
			res, err := riscvmem.RunBlur(dev, riscvmem.BlurConfig{
				W: 318, H: 253, C: 3, F: 19, Variant: riscvmem.BlurUnitStride,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Seconds, "sim-s")
		}
	}
	withPF := riscvmem.VisionFive()
	b.Run("VisionFive/prefetch=on", func(b *testing.B) { run(b, withPF) })
	noPF := riscvmem.VisionFive()
	noPF.Mem.NewPrefetcher = nil
	b.Run("VisionFive/prefetch=off", func(b *testing.B) { run(b, noPF) })
}

// BenchmarkAblationBlockSize sweeps the transposition tile edge on the
// Raspberry Pi 4 — the design-choice knob behind the Blocking variants.
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, blk := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("block=%d", blk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := riscvmem.RunTranspose(riscvmem.RaspberryPi4(), riscvmem.TransposeConfig{
					N: 512, Variant: riscvmem.TransposeManualBlocking, Block: blk,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Seconds, "sim-s")
			}
		})
	}
}

// BenchmarkAblationSchedule contrasts static and dynamic scheduling on the
// triangular block-row workload (the Manual_blocking → Dynamic step).
func BenchmarkAblationSchedule(b *testing.B) {
	for _, v := range []riscvmem.TransposeVariant{riscvmem.TransposeManualBlocking, riscvmem.TransposeDynamic} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := riscvmem.RunTranspose(riscvmem.XeonServer(), riscvmem.TransposeConfig{
					N: 1024, Variant: v,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Seconds, "sim-s")
			}
		})
	}
}

// BenchmarkAblationCacheOblivious compares the paper's tuned Blocking
// variant against the cache-oblivious recursive transpose of the paper's
// reference [24] (Chatterjee & Sen) — the "no tuning knob" alternative.
func BenchmarkAblationCacheOblivious(b *testing.B) {
	for _, dev := range riscvmem.Devices() {
		for _, v := range []riscvmem.TransposeVariant{riscvmem.TransposeBlocking, transpose.CacheOblivious} {
			b.Run(fmt.Sprintf("%s/%s", dev.Name, v), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := riscvmem.RunTranspose(dev, riscvmem.TransposeConfig{N: 512, Variant: v})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.Seconds, "sim-s")
				}
			})
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (host time per
// simulated access) — the engineering number that bounds paper-scale runs.
func BenchmarkSimulatorThroughput(b *testing.B) {
	dev := riscvmem.MangoPiD1()
	m, err := riscvmem.NewMachine(dev)
	if err != nil {
		b.Fatal(err)
	}
	arr, err := m.NewF64(1 << 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	m.RunSeq(func(c *riscvmem.Core) {
		for i := 0; i < b.N; i++ {
			arr.Load(c, i&(1<<16-1))
		}
	})
}

// BenchmarkTouchRangeThroughput measures the same streaming element-access
// pattern as BenchmarkSimulatorThroughput charged through the bulk range
// API (F64.LoadRange → Core.TouchRange): one full lookup per cache line
// instead of an L0-filter check per element. ns/op is still host time per
// simulated element. A layer reading, not traffic: no kernel charges a
// single forward unit-stride span (DESIGN.md §4.1).
func BenchmarkTouchRangeThroughput(b *testing.B) {
	dev := riscvmem.MangoPiD1()
	m, err := riscvmem.NewMachine(dev)
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 16
	arr, err := m.NewF64(n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	m.RunSeq(func(c *riscvmem.Core) {
		for done := 0; done < b.N; {
			chunk := n
			if left := b.N - done; left < chunk {
				chunk = left
			}
			arr.LoadRange(c, 0, chunk)
			done += chunk
		}
	})
}

// BenchmarkParallelRangeThroughput measures multi-core streaming under the
// event engine: every VisionFive core TouchRanges its static share of a
// shared array via Machine.ParallelRange, so the per-line range loop and the
// (time, core ID) ordering of the shared miss path run together. ns/op is
// host time per simulated element summed over the cores.
func BenchmarkParallelRangeThroughput(b *testing.B) {
	dev := riscvmem.VisionFive()
	m, err := riscvmem.NewMachine(dev)
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 16
	arr, err := m.NewF64(n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for done := 0; done < b.N; {
		chunk := n
		if left := b.N - done; left < chunk {
			chunk = left
		}
		m.ParallelRange(dev.Cores, chunk, riscvmem.Static, 0, func(c *riscvmem.Core, lo, hi int) {
			arr.LoadRange(c, lo, hi)
		})
		done += chunk
	}
}

// Compile-time check that the hier types remain exported for custom devices
// (used by examples/customdevice).
var _ = hier.Level{}
