// Package machine defines the four devices of the paper's §3.1 as parameter
// presets for the simulator, plus helpers to build custom devices.
//
// Each preset encodes the microarchitectural facts the paper lists —
// pipeline issue width, cache geometry and replacement policy, TLB shapes,
// prefetcher style, memory channels — with service rates and latencies
// calibrated so that simulated STREAM bandwidth lands in the ballpark the
// paper's Fig. 1 reports (the *ordering* and rough ratios between devices are
// what the downstream experiments rely on; see DESIGN.md §5).
//
// A device is plain data: every parameter, the prefetcher included, is a
// field of the Spec tree, so one function (Spec.Identity) names a device
// for machine pooling, the memo store and cluster routing alike.
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//
//simlint:deterministic
package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"riscvmem/internal/cache"
	"riscvmem/internal/dram"
	"riscvmem/internal/hier"
	"riscvmem/internal/prefetch"
	"riscvmem/internal/tlb"
	"riscvmem/internal/units"
)

// Spec is a complete device description.
type Spec struct {
	Name  string // short id, e.g. "MangoPi"
	CPU   string // marketing name of the SoC/CPU
	ISA   string // e.g. "RV64GCV"
	Cores int
	// FreqGHz is the core clock; all simulator cycle counts convert to
	// seconds through it.
	FreqGHz  float64
	RAMBytes int64

	// IssueWidth is the superscalar width used to cost integer/address
	// work: n abstract ops take n/IssueWidth cycles.
	IssueWidth int
	// FlopsPerCycle is scalar floating-point throughput per core.
	FlopsPerCycle float64
	// AutoVecBytes is the SIMD register width the device's compiler
	// auto-vectorizes with (0 when the paper's toolchain emitted scalar
	// code, as it did for both RISC-V boards).
	AutoVecBytes int

	// Mem is the full memory-system composition.
	Mem hier.Config
}

// Validate checks the spec (including the embedded memory configuration).
func (s Spec) Validate() error {
	if s.Cores <= 0 || s.FreqGHz <= 0 || s.RAMBytes <= 0 {
		return fmt.Errorf("machine %s: cores, frequency and RAM must be positive", s.Name)
	}
	if s.IssueWidth <= 0 || s.FlopsPerCycle <= 0 {
		return fmt.Errorf("machine %s: issue width and flop rate must be positive", s.Name)
	}
	if s.AutoVecBytes < 0 {
		return fmt.Errorf("machine %s: negative SIMD width", s.Name)
	}
	if s.Cores != s.Mem.Cores {
		return fmt.Errorf("machine %s: %d cores but memory system built for %d", s.Name, s.Cores, s.Mem.Cores)
	}
	return s.Mem.Validate()
}

// NewHierarchy instantiates the device's memory system.
func (s Spec) NewHierarchy() *hier.Hierarchy { return hier.MustNew(s.Mem) }

// Identity returns the device's canonical identity: the Name, "#", and 32
// hex digits of the SHA-256 of a fixed-order binary encoding of every field
// of the Spec tree. Two specs share an identity exactly when every parameter
// matches (barring a 128-bit digest collision), whatever their pointer
// addresses, so a mutated preset is distinguished from its base even when
// its Name was left unchanged. The one string is the Runner's machine-pool
// key, the Device coordinate of every memo store key, and the cluster's
// routing coordinate; it is cheap enough to compute per job.
//
// The format is stability-critical: a change orphans every persisted memo
// entry, so it goes with a run.CacheVersion key-format bump. The encoding
// writes numbers as fixed-width little-endian, length-prefixes strings, and
// puts a presence byte before each optional component.
func (s Spec) Identity() string {
	var buf [1024]byte
	b := s.appendCanonical(buf[:0])
	sum := sha256.Sum256(b)
	b = append(append(b[:0], s.Name...), '#')
	return string(hex.AppendEncode(b, sum[:16]))
}

// appendCanonical appends the encoding Identity digests; it must read every
// field of the Spec tree (TestIdentityCoversAllSpecFields enforces it).
func (s *Spec) appendCanonical(b []byte) []byte {
	b = appendString(b, s.Name)
	b = appendString(b, s.CPU)
	b = appendString(b, s.ISA)
	b = appendInt(b, int64(s.Cores))
	b = appendFloat(b, s.FreqGHz)
	b = appendInt(b, s.RAMBytes)
	b = appendInt(b, int64(s.IssueWidth))
	b = appendFloat(b, s.FlopsPerCycle)
	b = appendInt(b, int64(s.AutoVecBytes))

	m := &s.Mem
	b = appendInt(b, int64(m.Cores))
	b = appendInt(b, m.LineSize)
	b = appendCache(b, &m.L1)
	b = appendFloat(b, m.L1HitCycles)
	for _, lv := range [...]*hier.Level{m.L2, m.L3} {
		b = appendBool(b, lv != nil)
		if lv != nil {
			b = appendCache(b, &lv.Cache)
			b = appendFloat(b, lv.HitCycles)
			b = appendBool(b, lv.Shared)
		}
	}
	b = appendTLB(b, &m.UTLB)
	b = appendBool(b, m.JTLB != nil)
	if m.JTLB != nil {
		b = appendTLB(b, m.JTLB)
	}
	b = appendFloat(b, m.JTLBPenalty)
	b = appendInt(b, int64(m.WalkLevels))
	b = appendFloat(b, m.WalkCycles)
	b = appendString(b, m.DRAM.Name)
	b = appendInt(b, int64(m.DRAM.Channels))
	b = appendFloat(b, m.DRAM.BytesPerCycle)
	b = appendFloat(b, m.DRAM.LatencyCycles)
	b = appendInt(b, m.DRAM.LineBytes)
	b = appendFloat(b, m.MissOverlap)
	b = appendBool(b, m.Prefetch != nil)
	if p := m.Prefetch; p != nil {
		b = appendInt(b, p.LineSize)
		b = appendInt(b, int64(p.Streams))
		b = appendInt(b, p.MaxStrideLines)
		b = appendInt(b, p.MatchWindowLines)
		b = appendInt(b, int64(p.TrainThreshold))
		b = appendInt(b, int64(p.InitDistance))
		b = appendInt(b, int64(p.MaxDistance))
		b = appendBool(b, p.Ramp)
	}
	return appendInt(b, int64(m.MaxInflight))
}

func appendCache(b []byte, c *cache.Config) []byte {
	b = appendString(b, c.Name)
	b = appendInt(b, c.Size)
	b = appendInt(b, int64(c.Ways))
	b = appendInt(b, c.LineSize)
	b = appendInt(b, int64(c.Policy))
	return binary.LittleEndian.AppendUint64(b, c.Seed)
}

func appendTLB(b []byte, c *tlb.Config) []byte {
	b = appendString(b, c.Name)
	b = appendInt(b, int64(c.Entries))
	b = appendInt(b, int64(c.Ways))
	return appendInt(b, int64(c.PageShift))
}

func appendInt(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendString(b []byte, v string) []byte { return append(appendInt(b, int64(len(v))), v...) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Fits reports whether a working set of the given size fits in device RAM
// (with a small allowance for the OS, mirroring the paper's observation that
// the 16384² matrix "does not fit in memory" of the 1 GiB Mango Pi).
func (s Spec) Fits(bytes int64) bool {
	return bytes <= s.RAMBytes-s.RAMBytes/8
}

// PeakDRAMBandwidth returns the aggregate raw DRAM bandwidth.
func (s Spec) PeakDRAMBandwidth() units.BytesPerSec {
	return s.Mem.DRAM.PeakBandwidth(s.FreqGHz)
}

// String summarizes the device.
func (s Spec) String() string {
	return fmt.Sprintf("%s (%s, %d× %s @ %.1f GHz, %s RAM)",
		s.Name, s.CPU, s.Cores, s.ISA, s.FreqGHz, units.Bytes(s.RAMBytes))
}

const (
	lineSize  = 64
	pageShift = 12
)

// MangoPiD1 models the Mango Pi MQ-Pro: Allwinner D1, one XuanTie C906
// in-order single-issue core at 1 GHz, 1 GB DDR3L, and — decisively for the
// paper's results — no L2 cache at all, with an L1 whose bandwidth is only a
// modest improvement over DRAM (Fig. 1 discussion).
func MangoPiD1() Spec {
	return Spec{
		Name: "MangoPi", CPU: "Allwinner D1 (XuanTie C906)", ISA: "RV64IMAFDCV",
		Cores: 1, FreqGHz: 1.0, RAMBytes: 1 * units.GiB,
		IssueWidth: 1, FlopsPerCycle: 1, AutoVecBytes: 0,
		Mem: hier.Config{
			Cores:    1,
			LineSize: lineSize,
			L1: cache.Config{Name: "L1D", Size: 32 * units.KiB, Ways: 4,
				LineSize: lineSize, Policy: cache.LRU},
			L1HitCycles: 2.0, // ≈0.5 loads/cycle → ~4 GB/s of 8-byte loads
			UTLB:        tlb.Config{Name: "D-uTLB", Entries: 10, Ways: 10, PageShift: pageShift},
			JTLB:        &tlb.Config{Name: "jTLB", Entries: 128, Ways: 2, PageShift: pageShift},
			JTLBPenalty: 8,
			WalkLevels:  3, WalkCycles: 60, // walks go to DRAM: no L2 to catch PTEs
			DRAM: dram.Config{Name: "DDR3L", Channels: 1, BytesPerCycle: 2.0,
				LatencyCycles: 100, LineBytes: lineSize},
			MissOverlap: 1.0, // stalling in-order pipeline
			MaxInflight: 8,
			// §3.1: forward/backward consecutive and stride-based with
			// stride ≤ 16 cache lines.
			Prefetch: &prefetch.StrideConfig{
				LineSize: lineSize, Streams: 8, MaxStrideLines: 16,
				TrainThreshold: 2, InitDistance: 2, MaxDistance: 8, Ramp: false,
			},
		},
	}
}

// VisionFive models the StarFive VisionFive v1: JH7100 with two SiFive U74
// dual-issue in-order cores at 1 GHz and 8 GB LPDDR4 behind a severely
// reduced memory channel (the lowest DRAM bandwidth of all four devices in
// Fig. 1). L1 and L2 use the U74's random replacement policy; the prefetcher
// handles large strides and ramps its distance, which backfires when the
// starved channel cannot keep up (Fig. 6 "Unit-stride" discussion).
func VisionFive() Spec {
	return Spec{
		Name: "VisionFive", CPU: "StarFive JH7100 (SiFive U74)", ISA: "RV64IMAFDCB",
		Cores: 2, FreqGHz: 1.0, RAMBytes: 8 * units.GiB,
		IssueWidth: 2, FlopsPerCycle: 1, AutoVecBytes: 0,
		Mem: hier.Config{
			Cores:    2,
			LineSize: lineSize,
			L1: cache.Config{Name: "L1D", Size: 32 * units.KiB, Ways: 4,
				LineSize: lineSize, Policy: cache.Random, Seed: 0x5eed},
			L1HitCycles: 1.0, // dual-issue: ~1 load/cycle
			L2: &hier.Level{
				Cache: cache.Config{Name: "L2", Size: 128 * units.KiB, Ways: 8,
					LineSize: lineSize, Policy: cache.Random, Seed: 0xf00d},
				HitCycles: 22, Shared: true,
			},
			UTLB:        tlb.Config{Name: "DTLB", Entries: 40, Ways: 40, PageShift: pageShift},
			JTLB:        &tlb.Config{Name: "L2TLB", Entries: 512, Ways: 1, PageShift: pageShift},
			JTLBPenalty: 10,
			WalkLevels:  3, WalkCycles: 30,
			DRAM: dram.Config{Name: "LPDDR4", Channels: 2, BytesPerCycle: 0.5,
				LatencyCycles: 140, LineBytes: lineSize},
			MissOverlap: 1.0,
			MaxInflight: 6,
			// §3.1: forward and backward stride-based prefetch with large
			// strides and automatically increased prefetch distance.
			Prefetch: &prefetch.StrideConfig{
				LineSize: lineSize, Streams: 8, MaxStrideLines: 0,
				TrainThreshold: 2, InitDistance: 1, MaxDistance: 8, Ramp: true,
			},
		},
	}
}

// RaspberryPi4 models the Raspberry Pi 4B: four out-of-order Cortex-A72
// cores at 1.5 GHz with a shared 1 MiB L2 and LPDDR4 whose bandwidth towers
// over both RISC-V boards (Fig. 1) — while its *utilization* of that
// bandwidth in the transposition study is surprisingly low (Fig. 3).
func RaspberryPi4() Spec {
	return Spec{
		Name: "RaspberryPi4", CPU: "Broadcom BCM2711 (Cortex-A72)", ISA: "ARMv8-A",
		Cores: 4, FreqGHz: 1.5, RAMBytes: 4 * units.GiB,
		IssueWidth: 3, FlopsPerCycle: 2, AutoVecBytes: 16, // NEON
		Mem: hier.Config{
			Cores:    4,
			LineSize: lineSize,
			L1: cache.Config{Name: "L1D", Size: 32 * units.KiB, Ways: 2,
				LineSize: lineSize, Policy: cache.LRU},
			L1HitCycles: 0.5, // 2 loads/cycle
			L2: &hier.Level{
				Cache: cache.Config{Name: "L2", Size: 1 * units.MiB, Ways: 16,
					LineSize: lineSize, Policy: cache.LRU},
				HitCycles: 30, Shared: true,
			},
			UTLB:        tlb.Config{Name: "L1DTLB", Entries: 32, Ways: 32, PageShift: pageShift},
			JTLB:        &tlb.Config{Name: "L2TLB", Entries: 512, Ways: 4, PageShift: pageShift},
			JTLBPenalty: 7,
			WalkLevels:  3, WalkCycles: 25,
			DRAM: dram.Config{Name: "LPDDR4", Channels: 1, BytesPerCycle: 4.0,
				LatencyCycles: 230, LineBytes: lineSize},
			MissOverlap: 0.55, // modest out-of-order miss overlap
			MaxInflight: 8,
			Prefetch: &prefetch.StrideConfig{
				LineSize: lineSize, Streams: 8, MaxStrideLines: 0,
				TrainThreshold: 2, InitDistance: 2, MaxDistance: 16, Ramp: true,
			},
		},
	}
}

// XeonServer models the paper's reference platform: one socket of an Intel
// Xeon 4310T (10 Ice Lake cores, up to 3.4 GHz, private 1.25 MiB L2 per
// core, 15 MiB shared L3, many DDR4 channels). The paper pins work to the
// first socket to avoid NUMA, so a single-socket model suffices.
func XeonServer() Spec {
	return Spec{
		Name: "Xeon", CPU: "Intel Xeon 4310T (Ice Lake)", ISA: "x86-64 AVX-512",
		Cores: 10, FreqGHz: 3.4, RAMBytes: 64 * units.GiB,
		IssueWidth: 5, FlopsPerCycle: 2, AutoVecBytes: 64, // AVX-512
		Mem: hier.Config{
			Cores:    10,
			LineSize: lineSize,
			L1: cache.Config{Name: "L1D", Size: 48 * units.KiB, Ways: 12,
				LineSize: lineSize, Policy: cache.PLRU},
			L1HitCycles: 0.5,
			L2: &hier.Level{
				Cache: cache.Config{Name: "L2", Size: 1280 * units.KiB, Ways: 20,
					LineSize: lineSize, Policy: cache.PLRU},
				HitCycles: 14, Shared: false, // private per core
			},
			L3: &hier.Level{
				// 15 ways keeps the true 15 MiB capacity with a power-of-two
				// set count (the die's 12-way slices hash non-power-of-two).
				Cache: cache.Config{Name: "L3", Size: 15 * units.MiB, Ways: 15,
					LineSize: lineSize, Policy: cache.PLRU},
				HitCycles: 42, Shared: true,
			},
			UTLB:        tlb.Config{Name: "DTLB", Entries: 64, Ways: 4, PageShift: pageShift},
			JTLB:        &tlb.Config{Name: "STLB", Entries: 1536, Ways: 12, PageShift: pageShift},
			JTLBPenalty: 7,
			WalkLevels:  3, WalkCycles: 20,
			DRAM: dram.Config{Name: "DDR4", Channels: 8, BytesPerCycle: 2.0,
				LatencyCycles: 270, LineBytes: lineSize},
			MissOverlap: 0.22, // deep out-of-order window, many MSHRs
			MaxInflight: 12,
			Prefetch: &prefetch.StrideConfig{
				LineSize: lineSize, Streams: 16, MaxStrideLines: 0,
				TrainThreshold: 2, InitDistance: 4, MaxDistance: 32, Ramp: true,
			},
		},
	}
}

// All returns the paper's four devices in presentation order (the order the
// figures use: Xeon, Raspberry Pi, then the two RISC-V boards).
func All() []Spec {
	return []Spec{XeonServer(), RaspberryPi4(), VisionFive(), MangoPiD1()}
}

// Names returns the preset names in presentation order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// ByName returns the preset with the given Name. Names are case-sensitive;
// the error for an unknown name lists the valid ones.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("machine: unknown device %q (valid: %s)", name, strings.Join(Names(), ", "))
}
