package service

import (
	"io"
	"strings"

	"riscvmem/internal/obs"
)

// This file is the service's Prometheus exposition: WriteMetrics renders
// the operational counters — per-tier cache traffic, pool and admission
// state, job-store occupancy, request latency — in the text format every
// Prometheus-compatible scraper reads, written through internal/obs;
// cmd/simd mounts it at GET /metrics.

// newLatencyHist is the request-duration histogram. Coarse decade bounds:
// simulations span ~milliseconds (warm cache hits) to tens of seconds (cold
// 4096-job batches), so finer resolution would only add scrape noise.
func newLatencyHist() *obs.Histogram {
	return obs.NewHistogram("simd_request_duration_seconds",
		"Execution time of admitted requests (queue wait excluded).", "",
		0.001, 0.01, 0.1, 1, 10)
}

// newKernelHist is the per-kernel job-duration family, fed once per
// completed job by the local executor. Finer at the low end than the request
// bounds: a memoized cell completes in microseconds, and the 100µs/1ms
// buckets are what make warm-vs-cold visible per kernel.
func newKernelHist() *obs.Histogram {
	return obs.NewHistogram("simd_kernel_duration_seconds",
		"Per-job execution time by kernel (cache hits included).", "kernel",
		0.0001, 0.001, 0.01, 0.1, 1, 10)
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
	obs.Counter(&b, "simd_cache_hits_total",
		"Keyed jobs served from the memo store without simulating.", hits)
	obs.Counter(&b, "simd_cache_misses_total",
		"Keyed jobs that required a new simulation.", misses)

	ts := e.runner.TierStats()
	obs.Metric(&b, "simd_cache_tier_hits_total", "counter",
		"Memo store lookups served per tier.",
		obs.Sample{Labels: `tier="memory"`, Value: float64(ts.MemoryHits)},
		obs.Sample{Labels: `tier="disk"`, Value: float64(ts.DiskHits)})
	obs.Metric(&b, "simd_cache_tier_misses_total", "counter",
		"Memo store lookups that missed per tier.",
		obs.Sample{Labels: `tier="memory"`, Value: float64(ts.MemoryMisses)},
		obs.Sample{Labels: `tier="disk"`, Value: float64(ts.DiskMisses)})
	obs.Counter(&b, "simd_cache_memory_evictions_total",
		"Entries evicted from the bounded in-memory cache tier.", ts.MemoryEvictions)
	obs.Counter(&b, "simd_cache_disk_corrupt_total",
		"Persisted entries quarantined as unreadable and re-simulated.", ts.DiskCorrupt)
	obs.Counter(&b, "simd_cache_disk_writes_total",
		"Results persisted to the disk cache tier.", ts.DiskWrites)
	obs.Counter(&b, "simd_cache_disk_write_errors_total",
		"Failed persists (the request still succeeded from memory).", ts.DiskWriteErrors)
	obs.Counter(&b, "simd_runs_abandoned_total",
		"Simulations that kept running after their requester gave up.", e.runner.Abandoned())
	obs.Gauge(&b, "simd_pool_machines",
		"Idle simulated machines pooled for reuse.", float64(e.runner.PoolSize()))
	e.kernels.Write(&b)

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
	obs.Gauge(&b, "simd_inflight_requests",
		"Requests currently holding an execution slot.", float64(len(s.sem)))
	obs.Gauge(&b, "simd_queue_depth",
		"Requests waiting for an execution slot.", float64(s.queued.Load()))
	stored, active := s.jobCounts()
	obs.Gauge(&b, "simd_jobs_stored",
		"Async jobs held in the job store (all states).", float64(stored))
	obs.Gauge(&b, "simd_jobs_active",
		"Async jobs queued or running.", float64(active))

	s.latency.Write(&b)

	_, err := io.WriteString(w, b.String())
	return err
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
