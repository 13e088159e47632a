// Package units provides the small value types shared across the simulator:
// byte counts, bandwidths, and conversions between core cycles and seconds.
//
// All simulator timing is carried in floating-point core cycles; this package
// owns the conversion to wall-clock seconds (via the device frequency) and the
// human-readable formatting used by the reporting layer. Bandwidths follow the
// STREAM convention of decimal units (1 GB/s = 1e9 bytes per second).
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//
//simlint:deterministic
package units

import (
	"fmt"
	"strconv"
	"strings"
)

// Common byte quantities, in the binary (capacity) sense used for cache and
// RAM sizes.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
)

// Bytes is a byte count with readable formatting.
type Bytes int64

// String renders the count with a binary suffix, e.g. "32 KiB" or "1.5 GiB".
func (b Bytes) String() string {
	switch v := int64(b); {
	case v >= GiB:
		return trimUnit(float64(v)/float64(GiB), "GiB")
	case v >= MiB:
		return trimUnit(float64(v)/float64(MiB), "MiB")
	case v >= KiB:
		return trimUnit(float64(v)/float64(KiB), "KiB")
	default:
		return fmt.Sprintf("%d B", v)
	}
}

// ParseBytes parses a human-readable byte count — "64", "128KiB", "1.5 MiB",
// "2GiB" — into bytes. Suffixes are the binary units KiB/MiB/GiB (case-
// insensitive, optional space, optional trailing "B" alone for plain bytes);
// fractional values must still resolve to a whole number of bytes. It is the
// inverse of Bytes.String and the size parser of the sweep axis grammar.
func ParseBytes(s string) (int64, error) {
	text := strings.TrimSpace(s)
	mult := int64(1)
	lower := strings.ToLower(text)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"gib", GiB}, {"mib", MiB}, {"kib", KiB}, {"b", 1}} {
		if strings.HasSuffix(lower, u.suffix) {
			mult = u.mult
			text = strings.TrimSpace(text[:len(text)-len(u.suffix)])
			break
		}
	}
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return 0, fmt.Errorf("units: cannot parse byte count %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: negative byte count %q", s)
	}
	bytes := v * float64(mult)
	if bytes != float64(int64(bytes)) {
		return 0, fmt.Errorf("units: %q is not a whole number of bytes", s)
	}
	return int64(bytes), nil
}

func trimUnit(v float64, unit string) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d %s", int64(v), unit)
	}
	return fmt.Sprintf("%.1f %s", v, unit)
}

// BytesPerSec is a bandwidth in bytes per second (decimal units when
// formatted, matching STREAM's reporting convention).
type BytesPerSec float64

// GBps returns the bandwidth in decimal gigabytes per second.
func (r BytesPerSec) GBps() float64 { return float64(r) / 1e9 }

// String renders the bandwidth as "12.34 GB/s" (or MB/s below 1 GB/s).
func (r BytesPerSec) String() string {
	switch v := float64(r); {
	case v >= 1e9:
		return fmt.Sprintf("%.2f GB/s", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2f MB/s", v/1e6)
	default:
		return fmt.Sprintf("%.0f B/s", v)
	}
}

// Cycles is a duration measured in core clock cycles. The simulator uses
// float64 cycles throughout so fractional costs (e.g. amortized loop
// overhead, SIMD lanes) compose without rounding drift.
type Cycles = float64

// Seconds converts a cycle count at the given core frequency (GHz) to
// wall-clock seconds.
func Seconds(c Cycles, freqGHz float64) float64 {
	return c / (freqGHz * 1e9)
}

// Bandwidth computes achieved bandwidth for `bytes` moved over `c` cycles at
// the given frequency.
func Bandwidth(bytes int64, c Cycles, freqGHz float64) BytesPerSec {
	if c <= 0 {
		return 0
	}
	return BytesPerSec(float64(bytes) / Seconds(c, freqGHz))
}

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int64) bool { return v > 0 && v&(v-1) == 0 }

// Log2 returns floor(log2(v)) for v > 0.
func Log2(v int64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
