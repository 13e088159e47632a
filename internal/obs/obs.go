// Package obs renders Prometheus text exposition (format 0.0.4) by hand, so
// the module stays dependency-free: one metric-family writer, and one
// fixed-bucket cumulative histogram. Every /metrics page of the program —
// standalone service, coordinator, worker — is written through it.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Sample is one labelled series of a multi-series metric.
type Sample struct {
	Labels string // rendered label pairs, no braces; empty for none
	Value  float64
}

// Metric appends one metric family: HELP, TYPE, then each sample.
func Metric(b *strings.Builder, name, typ, help string, samples ...Sample) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, smp := range samples {
		if smp.Labels == "" {
			fmt.Fprintf(b, "%s %s\n", name, trimFloat(smp.Value))
		} else {
			fmt.Fprintf(b, "%s{%s} %s\n", name, smp.Labels, trimFloat(smp.Value))
		}
	}
}

func Counter(b *strings.Builder, name, help string, v uint64) {
	Metric(b, name, "counter", help, Sample{Value: float64(v)})
}

func Gauge(b *strings.Builder, name, help string, v float64) {
	Metric(b, name, "gauge", help, Sample{Value: v})
}

// trimFloat renders a float the way Prometheus expects: integral values
// without a decimal point, everything else in shortest form.
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MaxSeries bounds the label cardinality a labelled Histogram accumulates;
// values past the cap (runaway custom registrations) fold into "other".
const MaxSeries = 64

// Histogram is a fixed-bucket cumulative histogram of durations, one series
// per value of a single optional label. Lock-free: an observation is one map
// load plus two atomic adds.
type Histogram struct {
	name, help, label string
	bounds            []float64 // upper bounds in seconds, ascending; +Inf is implied
	series            sync.Map  // label value -> *series
	n                 atomic.Int64
}

type series struct {
	counts []atomic.Uint64 // len(bounds)+1, the last for +Inf
	sumNS  atomic.Int64
}

// NewHistogram builds a histogram over the given bounds. With label "" it
// has exactly one series, observed under "" and rendered even when empty; a
// labelled histogram renders nothing until it has an observation.
func NewHistogram(name, help, label string, bounds ...float64) *Histogram {
	h := &Histogram{name: name, help: help, label: label, bounds: bounds}
	if label == "" {
		h.get("")
	}
	return h
}

// Observe counts d in the series of the given label value. A bound is
// inclusive: Observe(bound) lands in its bucket.
func (h *Histogram) Observe(value string, d time.Duration) {
	s := h.get(value)
	sec := d.Seconds()
	i := 0
	for i < len(h.bounds) && sec > h.bounds[i] {
		i++
	}
	s.counts[i].Add(1)
	s.sumNS.Add(int64(d))
}

func (h *Histogram) get(value string) *series {
	if v, ok := h.series.Load(value); ok {
		return v.(*series)
	}
	if h.n.Load() >= MaxSeries {
		value = "other"
		if v, ok := h.series.Load(value); ok {
			return v.(*series)
		}
	}
	v, loaded := h.series.LoadOrStore(value, &series{counts: make([]atomic.Uint64, len(h.bounds)+1)})
	if !loaded {
		h.n.Add(1) // approximate under races; the cap is a hygiene bound
	}
	return v.(*series)
}

// Write renders the family, label values in sorted order for stable scrapes.
func (h *Histogram) Write(b *strings.Builder) {
	var values []string
	h.series.Range(func(key, _ any) bool {
		values = append(values, key.(string))
		return true
	})
	if len(values) == 0 {
		return
	}
	sort.Strings(values)
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	for _, value := range values {
		lead, only := "", "" // the label inside a bucket's braces, and alone
		if h.label != "" {
			lead = fmt.Sprintf("%s=%q,", h.label, value)
			only = fmt.Sprintf("{%s=%q}", h.label, value)
		}
		s := h.get(value)
		cum := uint64(0)
		for i, le := range h.bounds {
			cum += s.counts[i].Load()
			fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", h.name, lead, trimFloat(le), cum)
		}
		cum += s.counts[len(h.bounds)].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", h.name, lead, cum)
		fmt.Fprintf(b, "%s_sum%s %g\n", h.name, only, time.Duration(s.sumNS.Load()).Seconds())
		fmt.Fprintf(b, "%s_count%s %d\n", h.name, only, cum)
	}
}
