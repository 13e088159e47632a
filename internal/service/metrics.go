package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the service's Prometheus exposition: WriteMetrics renders
// the operational counters — per-tier cache traffic, pool and admission
// state, job-store occupancy, request latency — in the text format every
// Prometheus-compatible scraper reads. It is hand-rolled (a dozen gauge/
// counter lines and one fixed-bucket histogram) so the module stays
// dependency-free; cmd/simd mounts it at GET /metrics.

// latencyBuckets are the request-duration histogram's upper bounds in
// seconds. Coarse decades: simulations span ~milliseconds (warm cache hits)
// to tens of seconds (cold 4096-job batches), so finer resolution would
// only add scrape noise.
var latencyBuckets = [...]float64{0.001, 0.01, 0.1, 1, 10}

// latencyHist is a fixed-bucket cumulative histogram fed by observeLatency.
// Lock-free: one atomic add per observation on the fast path.
type latencyHist struct {
	counts [len(latencyBuckets) + 1]atomic.Uint64 // +1 for the +Inf bucket
	sumNS  atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	sec := d.Seconds()
	i := 0
	for i < len(latencyBuckets) && sec > latencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
}

// kernelLatencyBuckets are the per-kernel job-duration bounds. Finer at
// the low end than the request buckets: a memoized cell completes in
// microseconds, and the 100µs/1ms buckets are what make warm-vs-cold
// visible per kernel.
var kernelLatencyBuckets = [...]float64{0.0001, 0.001, 0.01, 0.1, 1, 10}

// maxKernelSeries bounds the label cardinality a scrape can accumulate;
// kernels past the cap (runaway custom registrations) fold into "other".
const maxKernelSeries = 64

// kernelHist is a family of fixed-bucket histograms keyed by kernel label,
// fed once per completed job by the local executor. Same lock-free scheme as
// latencyHist: the fast path is one sync.Map load plus two atomic adds.
type kernelHist struct {
	m sync.Map     // kernel label -> *kernelSeries
	n atomic.Int64 // distinct labels stored, for the cardinality cap
}

type kernelSeries struct {
	counts [len(kernelLatencyBuckets) + 1]atomic.Uint64 // +1 for +Inf
	sumNS  atomic.Int64
}

func (k *kernelHist) observe(label string, d time.Duration) {
	h := k.series(label)
	sec := d.Seconds()
	i := 0
	for i < len(kernelLatencyBuckets) && sec > kernelLatencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
}

func (k *kernelHist) series(label string) *kernelSeries {
	if v, ok := k.m.Load(label); ok {
		return v.(*kernelSeries)
	}
	if k.n.Load() >= maxKernelSeries {
		label = "other"
		if v, ok := k.m.Load(label); ok {
			return v.(*kernelSeries)
		}
	}
	v, loaded := k.m.LoadOrStore(label, &kernelSeries{})
	if !loaded {
		k.n.Add(1) // approximate under races; the cap is a hygiene bound
	}
	return v.(*kernelSeries)
}

// write renders the family, labels in sorted order for stable scrapes.
func (k *kernelHist) write(b *strings.Builder) {
	var labels []string
	k.m.Range(func(key, _ any) bool {
		labels = append(labels, key.(string))
		return true
	})
	if len(labels) == 0 {
		return
	}
	sort.Strings(labels)
	fmt.Fprintf(b, "# HELP simd_kernel_duration_seconds Per-job execution time by kernel (cache hits included).\n")
	fmt.Fprintf(b, "# TYPE simd_kernel_duration_seconds histogram\n")
	for _, label := range labels {
		v, _ := k.m.Load(label)
		h := v.(*kernelSeries)
		cum := uint64(0)
		for i, le := range kernelLatencyBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(b, "simd_kernel_duration_seconds_bucket{kernel=%q,le=%q} %d\n",
				label, trimFloat(le), cum)
		}
		cum += h.counts[len(kernelLatencyBuckets)].Load()
		fmt.Fprintf(b, "simd_kernel_duration_seconds_bucket{kernel=%q,le=\"+Inf\"} %d\n", label, cum)
		fmt.Fprintf(b, "simd_kernel_duration_seconds_sum{kernel=%q} %g\n",
			label, time.Duration(h.sumNS.Load()).Seconds())
		fmt.Fprintf(b, "simd_kernel_duration_seconds_count{kernel=%q} %d\n", label, cum)
	}
}

// kernelLabel maps a workload name onto its histogram label: the kernel
// family before the first '/' ("stream/TRIAD" → "stream"), or the whole
// name for unstructured custom registrations.
func kernelLabel(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// WriteMetrics renders the local executor's series: memo cache traffic per
// tier, the machine pool, and per-kernel job latency.
func (e *localExecutor) WriteMetrics(w io.Writer) error {
	var b strings.Builder

	hits, misses := e.runner.CacheStats()
	counter(&b, "simd_cache_hits_total",
		"Keyed jobs served from the memo store without simulating.", hits)
	counter(&b, "simd_cache_misses_total",
		"Keyed jobs that required a new simulation.", misses)

	ts := e.runner.TierStats()
	metric(&b, "simd_cache_tier_hits_total", "counter",
		"Memo store lookups served per tier.",
		sample{labels: `tier="memory"`, value: float64(ts.MemoryHits)},
		sample{labels: `tier="disk"`, value: float64(ts.DiskHits)})
	metric(&b, "simd_cache_tier_misses_total", "counter",
		"Memo store lookups that missed per tier.",
		sample{labels: `tier="memory"`, value: float64(ts.MemoryMisses)},
		sample{labels: `tier="disk"`, value: float64(ts.DiskMisses)})
	counter(&b, "simd_cache_memory_evictions_total",
		"Entries evicted from the bounded in-memory cache tier.", ts.MemoryEvictions)
	counter(&b, "simd_cache_disk_corrupt_total",
		"Persisted entries quarantined as unreadable and re-simulated.", ts.DiskCorrupt)
	counter(&b, "simd_cache_disk_writes_total",
		"Results persisted to the disk cache tier.", ts.DiskWrites)
	counter(&b, "simd_cache_disk_write_errors_total",
		"Failed persists (the request still succeeded from memory).", ts.DiskWriteErrors)
	counter(&b, "simd_runs_abandoned_total",
		"Simulations that kept running after their requester gave up.", e.runner.Abandoned())
	gauge(&b, "simd_pool_machines",
		"Idle simulated machines pooled for reuse.", float64(e.runner.PoolSize()))
	e.kernels.write(&b)

	_, err := io.WriteString(w, b.String())
	return err
}

// WriteMetrics renders the service's operational metrics in Prometheus
// text exposition format (version 0.0.4): the executor's own series, then
// admission, job-store and request-latency state. Everything is a
// point-in-time snapshot of counters already maintained — rendering
// performs no simulation work and takes no long-held locks.
func (s *Service) WriteMetrics(w io.Writer) error {
	if err := s.exec.WriteMetrics(w); err != nil {
		return err
	}
	var b strings.Builder
	gauge(&b, "simd_inflight_requests",
		"Requests currently holding an execution slot.", float64(len(s.sem)))
	gauge(&b, "simd_queue_depth",
		"Requests waiting for an execution slot.", float64(s.queued.Load()))
	stored, active := s.jobCounts()
	gauge(&b, "simd_jobs_stored",
		"Async jobs held in the job store (all states).", float64(stored))
	gauge(&b, "simd_jobs_active",
		"Async jobs queued or running.", float64(active))

	s.latency.write(&b)

	_, err := io.WriteString(w, b.String())
	return err
}

// write renders the histogram in Prometheus cumulative-bucket form.
func (h *latencyHist) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP simd_request_duration_seconds Execution time of admitted requests (queue wait excluded).\n")
	fmt.Fprintf(b, "# TYPE simd_request_duration_seconds histogram\n")
	cum := uint64(0)
	for i, le := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "simd_request_duration_seconds_bucket{le=%q} %d\n", trimFloat(le), cum)
	}
	cum += h.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(b, "simd_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(b, "simd_request_duration_seconds_sum %g\n",
		time.Duration(h.sumNS.Load()).Seconds())
	fmt.Fprintf(b, "simd_request_duration_seconds_count %d\n", cum)
}

// sample is one labelled series of a multi-series metric.
type sample struct {
	labels string // rendered label pairs, no braces; empty for none
	value  float64
}

// metric appends one metric family: HELP, TYPE, then each sample.
func metric(b *strings.Builder, name, typ, help string, samples ...sample) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, smp := range samples {
		if smp.labels == "" {
			fmt.Fprintf(b, "%s %s\n", name, trimFloat(smp.value))
		} else {
			fmt.Fprintf(b, "%s{%s} %s\n", name, smp.labels, trimFloat(smp.value))
		}
	}
}

func counter(b *strings.Builder, name, help string, v uint64) {
	metric(b, name, "counter", help, sample{value: float64(v)})
}

func gauge(b *strings.Builder, name, help string, v float64) {
	metric(b, name, "gauge", help, sample{value: v})
}

// trimFloat renders a float the way Prometheus expects: integral values
// without a decimal point, everything else in shortest form.
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jobCounts snapshots the job store: total stored jobs and how many are
// still queued or running.
func (s *Service) jobCounts() (stored, active int) {
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	for _, j := range s.jobs.jobs {
		if !j.state.terminal() {
			active++
		}
	}
	return len(s.jobs.jobs), active
}
