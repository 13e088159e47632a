package obs

import (
	"strings"
	"testing"
	"time"
)

func TestExpositionText(t *testing.T) {
	var b strings.Builder
	Counter(&b, "c_total", "A counter.", 3)
	Gauge(&b, "g", "A gauge.", 0.5)
	Metric(&b, "m_total", "counter", "Two series.",
		Sample{Labels: `tier="memory"`, Value: 1}, Sample{Labels: `tier="disk"`, Value: 2})

	plain := NewHistogram("h_seconds", "Unlabelled.", "", 0.001, 1)
	plain.Write(&b) // empty, still rendered
	labelled := NewHistogram("k_seconds", "Labelled.", "kernel", 0.001, 1)
	labelled.Write(&b)                           // empty: nothing
	labelled.Observe("stream", time.Millisecond) // a bound is inclusive
	labelled.Observe("blur", 2*time.Second)
	labelled.Write(&b)

	want := `# HELP c_total A counter.
# TYPE c_total counter
c_total 3
# HELP g A gauge.
# TYPE g gauge
g 0.5
# HELP m_total Two series.
# TYPE m_total counter
m_total{tier="memory"} 1
m_total{tier="disk"} 2
# HELP h_seconds Unlabelled.
# TYPE h_seconds histogram
h_seconds_bucket{le="0.001"} 0
h_seconds_bucket{le="1"} 0
h_seconds_bucket{le="+Inf"} 0
h_seconds_sum 0
h_seconds_count 0
# HELP k_seconds Labelled.
# TYPE k_seconds histogram
k_seconds_bucket{kernel="blur",le="0.001"} 0
k_seconds_bucket{kernel="blur",le="1"} 0
k_seconds_bucket{kernel="blur",le="+Inf"} 1
k_seconds_sum{kernel="blur"} 2
k_seconds_count{kernel="blur"} 1
k_seconds_bucket{kernel="stream",le="0.001"} 1
k_seconds_bucket{kernel="stream",le="1"} 1
k_seconds_bucket{kernel="stream",le="+Inf"} 1
k_seconds_sum{kernel="stream"} 0.001
k_seconds_count{kernel="stream"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition text:\n%s\nwant:\n%s", got, want)
	}
}
