// The sweep axis grammar: "name=v1,v2,..." strings — the -axis flag of
// cmd/kernel — compiled into Axis values over the machine package's spec
// mutation helpers.
package sweep

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"riscvmem/internal/cache"
	"riscvmem/internal/machine"
	"riscvmem/internal/units"
)

// axisParsers maps axis names to per-value point compilers. Every axis also
// accepts the literal value "base", meaning "leave the parameter at the
// preset's value" (handled in ParseAxis before the compiler runs).
var axisParsers = map[string]func(value string) (Point, error){
	// l2=off removes the L2 (and L3); l2=<size> sets (or adds) an L2 of
	// that capacity, e.g. l2=128KiB, l2=1MiB.
	"l2": func(v string) (Point, error) {
		if strings.EqualFold(v, "off") {
			return Point{Label: "off", Apply: machine.Spec.WithoutL2}, nil
		}
		size, err := units.ParseBytes(v)
		if err != nil || size <= 0 {
			return Point{}, fmt.Errorf("want off, base or a size like 128KiB")
		}
		return Point{Label: v, Apply: func(s machine.Spec) machine.Spec {
			return s.WithL2(size)
		}}, nil
	},
	// maxinflight=<n>: per-core MSHR count (outstanding fills).
	"maxinflight": intAxis(func(s machine.Spec, n int) machine.Spec {
		return s.WithMaxInflight(n)
	}),
	// l1ways=<n>: L1 associativity (must keep the set count a power of two).
	"l1ways": intAxis(func(s machine.Spec, n int) machine.Spec {
		return s.WithL1Ways(n)
	}),
	// channels=<n>: independent DRAM channels.
	"channels": intAxis(func(s machine.Spec, n int) machine.Spec {
		return s.WithDRAMChannels(n)
	}),
	// dramlat=<cycles>: fixed DRAM access latency in core cycles.
	"dramlat": floatAxis(func(s machine.Spec, v float64) machine.Spec {
		return s.WithDRAMLatency(v)
	}),
	// missoverlap=<f>: exposed-miss-latency factor in (0,1].
	"missoverlap": floatAxis(func(s machine.Spec, v float64) machine.Spec {
		return s.WithMissOverlap(v)
	}),
	// prefdist=<n>: stride prefetcher maximum look-ahead distance.
	"prefdist": intAxis(func(s machine.Spec, n int) machine.Spec {
		return s.WithPrefetchDistance(n)
	}),
	// preframp=on|off: automatic prefetch-distance ramping.
	"preframp": func(v string) (Point, error) {
		switch strings.ToLower(v) {
		case "on":
			return Point{Label: "on", Apply: func(s machine.Spec) machine.Spec {
				return s.WithPrefetchRamp(true)
			}}, nil
		case "off":
			return Point{Label: "off", Apply: func(s machine.Spec) machine.Spec {
				return s.WithPrefetchRamp(false)
			}}, nil
		}
		return Point{}, fmt.Errorf("want on, off or base")
	},
	// pref=off: disable data prefetching entirely.
	"pref": func(v string) (Point, error) {
		if !strings.EqualFold(v, "off") {
			return Point{}, fmt.Errorf("want off or base")
		}
		return Point{Label: "off", Apply: machine.Spec.WithoutPrefetcher}, nil
	},
	// policy=LRU|Random|FIFO|PLRU: replacement policy for every cache level.
	"policy": func(v string) (Point, error) {
		for _, p := range []cache.Policy{cache.LRU, cache.Random, cache.FIFO, cache.PLRU} {
			if strings.EqualFold(v, p.String()) {
				p := p
				return Point{Label: p.String(), Apply: func(s machine.Spec) machine.Spec {
					return s.WithPolicy(p)
				}}, nil
			}
		}
		return Point{}, fmt.Errorf("want LRU, Random, FIFO, PLRU or base")
	},
}

func intAxis(apply func(machine.Spec, int) machine.Spec) func(string) (Point, error) {
	return func(v string) (Point, error) {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return Point{}, fmt.Errorf("want a positive integer or base")
		}
		return Point{Label: v, Apply: func(s machine.Spec) machine.Spec {
			return apply(s, n)
		}}, nil
	}
}

func floatAxis(apply func(machine.Spec, float64) machine.Spec) func(string) (Point, error) {
	return func(v string) (Point, error) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			return Point{}, fmt.Errorf("want a positive number or base")
		}
		return Point{Label: v, Apply: func(s machine.Spec) machine.Spec {
			return apply(s, f)
		}}, nil
	}
}

// AxisNames lists the grammar's axis names, sorted.
func AxisNames() []string {
	names := make([]string, 0, len(axisParsers))
	for name := range axisParsers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParseAxis compiles one "name=v1,v2,..." axis declaration. The value
// "base" is accepted on every axis and leaves the parameter at the preset's
// value (the resulting cell row is the reference the deltas are computed
// against when every axis is at base).
func ParseAxis(s string) (Axis, error) {
	name, values, ok := strings.Cut(s, "=")
	name = strings.TrimSpace(strings.ToLower(name))
	if !ok || name == "" || strings.TrimSpace(values) == "" {
		return Axis{}, fmt.Errorf("sweep: axis %q: want name=v1,v2,... (axes: %s)",
			s, strings.Join(AxisNames(), ", "))
	}
	parse, ok := axisParsers[name]
	if !ok {
		return Axis{}, fmt.Errorf("sweep: unknown axis %q (axes: %s)",
			name, strings.Join(AxisNames(), ", "))
	}
	ax := Axis{
		Name:              name,
		MutatesPrefetcher: name == "prefdist" || name == "preframp",
	}
	seen := map[string]bool{}
	for _, raw := range strings.Split(values, ",") {
		v := strings.TrimSpace(raw)
		var p Point
		if strings.EqualFold(v, "base") {
			p = Base()
		} else {
			var err error
			if p, err = parse(v); err != nil {
				return Axis{}, fmt.Errorf("sweep: axis %s: bad value %q: %v", name, v, err)
			}
		}
		if seen[p.Label] {
			return Axis{}, fmt.Errorf("sweep: axis %s: duplicate value %q", name, p.Label)
		}
		seen[p.Label] = true
		ax.Points = append(ax.Points, p)
	}
	return ax, nil
}

// MustParseAxis is ParseAxis but panics on error; for tests and examples
// with literal axis strings.
func MustParseAxis(s string) Axis {
	ax, err := ParseAxis(s)
	if err != nil {
		panic(err)
	}
	return ax
}

// ParseAxes compiles a list of axis declarations — the wire form a
// SweepRequest carries.
func ParseAxes(strs []string) ([]Axis, error) {
	axes := make([]Axis, len(strs))
	for i, s := range strs {
		ax, err := ParseAxis(s)
		if err != nil {
			return nil, err
		}
		axes[i] = ax
	}
	return axes, nil
}
