package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"riscvmem/internal/run"
)

// persistentService builds a Service whose runner memoizes into a tiered
// store with a disk tier rooted at dir — the cmd/simd -cache-dir shape.
func persistentService(t *testing.T, dir string) *Service {
	t.Helper()
	store, err := run.OpenStore(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Parallelism: 2, Store: store})
}

// metricValue extracts one sample's value from Prometheus text exposition.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %q not found in exposition:\n%s", series, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %q value %q: %v", series, m[1], err)
	}
	return v
}

// TestServiceRestartWarm is the service-level restart oracle: a second
// Service over the same cache directory — a restarted daemon — serves a
// previously computed batch with zero new simulations, reports the work in
// the disk tier of its per-request stats, and returns bit-identical rows.
func TestServiceRestartWarm(t *testing.T) {
	dir := t.TempDir()
	req := BatchRequest{Workloads: []run.WorkloadSpec{
		run.MustParseWorkloadSpec("stream:test=COPY,elems=1024,reps=1"),
		run.MustParseWorkloadSpec("transpose:n=64,variant=Blocking"),
	}}

	cold, err := persistentService(t, dir).Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache.RequestMisses == 0 {
		t.Fatal("cold request reports zero misses; test is vacuous")
	}
	if got, want := cold.Cache.RequestTiers.DiskWrites, cold.Cache.RequestMisses; got != want {
		t.Errorf("cold request persisted %d entries, want %d (one per simulation)", got, want)
	}

	warmSvc := persistentService(t, dir)
	warm, err := warmSvc.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.RequestMisses != 0 {
		t.Errorf("restarted service simulated %d cells, want 0", warm.Cache.RequestMisses)
	}
	if got, want := warm.Cache.RequestTiers.DiskHits, uint64(len(warm.Results)); got != want {
		t.Errorf("restarted service disk hits = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(warm.Results, cold.Results) {
		t.Errorf("restart-warm rows diverge from cold:\n got %+v\nwant %+v", warm.Results, cold.Results)
	}

	// The same story must be visible to a scraper.
	ts := httptest.NewServer(NewHandler(warmSvc))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	if got := metricValue(t, body, `simd_cache_tier_hits_total{tier="disk"}`); got != float64(len(warm.Results)) {
		t.Errorf("scraped disk hits = %v, want %d", got, len(warm.Results))
	}
	if got := metricValue(t, body, "simd_cache_misses_total"); got != 0 {
		t.Errorf("scraped misses = %v, want 0 on the restarted service", got)
	}
}

// TestMetricsEndpoint exercises every family the exposition promises and
// the gauges' live values.
func TestMetricsEndpoint(t *testing.T) {
	svc := New(Options{Parallelism: 2})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	req := BatchRequest{Workloads: []run.WorkloadSpec{
		run.MustParseWorkloadSpec("stream:test=COPY,elems=1024,reps=1"),
	}}
	if _, err := svc.Batch(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	if got := metricValue(t, body, "simd_cache_misses_total"); got == 0 {
		t.Error("misses counter is zero after a cold batch")
	}
	if got := metricValue(t, body, `simd_cache_tier_misses_total{tier="memory"}`); got == 0 {
		t.Error("memory tier misses is zero after a cold batch")
	}
	// A memory-only service never touches a disk tier.
	if got := metricValue(t, body, `simd_cache_tier_hits_total{tier="disk"}`); got != 0 {
		t.Errorf("disk hits = %v on a memory-only store", got)
	}
	if got := metricValue(t, body, "simd_pool_machines"); got == 0 {
		t.Error("pool gauge is zero after a batch returned its machines")
	}
	if got := metricValue(t, body, "simd_inflight_requests"); got != 0 {
		t.Errorf("inflight = %v with no request running", got)
	}
	if got := metricValue(t, body, "simd_request_duration_seconds_count"); got != 1 {
		t.Errorf("histogram count = %v, want 1", got)
	}
	if got := metricValue(t, body, `simd_request_duration_seconds_bucket{le="+Inf"}`); got != 1 {
		t.Errorf("+Inf bucket = %v, want 1", got)
	}
	for _, series := range []string{
		"simd_cache_hits_total",
		"simd_cache_memory_evictions_total",
		"simd_cache_disk_corrupt_total",
		"simd_cache_disk_writes_total",
		"simd_cache_disk_write_errors_total",
		"simd_runs_abandoned_total",
		"simd_queue_depth",
		"simd_jobs_stored",
		"simd_jobs_active",
		"simd_request_duration_seconds_sum",
	} {
		metricValue(t, body, series) // fails the test if absent
	}
}

// TestLatencyHistBuckets pins bucket assignment at and around the decade
// boundaries (a bound is inclusive: observe(bound) lands in its bucket).
func TestLatencyHistBuckets(t *testing.T) {
	h := newLatencyHist()
	h.Observe("", 500*time.Microsecond) // ≤ 1ms
	h.Observe("", time.Millisecond)     // ≤ 1ms (inclusive)
	h.Observe("", 2*time.Millisecond)   // ≤ 10ms
	h.Observe("", time.Second)          // ≤ 1s
	h.Observe("", time.Minute)          // +Inf
	var b strings.Builder
	h.Write(&b)
	body := b.String()
	// Cumulative: per-bucket counts 2, 1, 0, 1, 0, 1.
	for le, want := range map[string]float64{"0.001": 2, "0.01": 3, "0.1": 3, "1": 4, "10": 4, "+Inf": 5} {
		if got := metricValue(t, body, `simd_request_duration_seconds_bucket{le="`+le+`"}`); got != want {
			t.Errorf("bucket le=%s cumulative count = %v, want %v", le, got, want)
		}
	}
	wantSum := 500*time.Microsecond + 3*time.Millisecond + time.Second + time.Minute
	if got := metricValue(t, body, "simd_request_duration_seconds_sum"); got != wantSum.Seconds() {
		t.Errorf("sum = %v, want %v", got, wantSum.Seconds())
	}
}
