package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"riscvmem/internal/leakcheck"
	"riscvmem/internal/obs"
)

// TestKernelHistogramOnMetrics pins the per-kernel latency histogram on the
// scrape surface: one batch touching two kernel families yields one
// observation per family under simd_kernel_duration_seconds, with the full
// bucket/sum/count series triplet per label.
func TestKernelHistogramOnMetrics(t *testing.T) {
	defer leakcheck.Check(t)()
	svc := New(Options{})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	if _, err := svc.Batch(context.Background(),
		*fastBatch("stream:test=COPY,elems=1024,reps=1", "transpose:variant=Naive,n=64")); err != nil {
		t.Fatal(err)
	}

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, kernel := range []string{"stream", "transpose"} {
		if got := metricValue(t, body, fmt.Sprintf("simd_kernel_duration_seconds_count{kernel=%q}", kernel)); got != 1 {
			t.Errorf("%s count = %g, want 1", kernel, got)
		}
		if got := metricValue(t, body, fmt.Sprintf("simd_kernel_duration_seconds_bucket{kernel=%q,le=\"+Inf\"}", kernel)); got != 1 {
			t.Errorf("%s +Inf bucket = %g, want 1", kernel, got)
		}
		// The sum must exist and be a sane duration; its exact value is
		// host timing.
		if got := metricValue(t, body, fmt.Sprintf("simd_kernel_duration_seconds_sum{kernel=%q}", kernel)); got < 0 {
			t.Errorf("%s sum = %g, want ≥ 0", kernel, got)
		}
	}
}

// TestKernelHistogramCardinalityCap exercises the label-cardinality bound:
// past maxKernelSeries distinct kernels, further labels fold into "other"
// instead of growing the scrape without limit. No observation is dropped.
func TestKernelHistogramCardinalityCap(t *testing.T) {
	const extra = 5
	k := newKernelHist()
	for i := 0; i < obs.MaxSeries+extra; i++ {
		k.Observe(fmt.Sprintf("kernel%03d", i), 0)
	}
	var b strings.Builder
	k.Write(&b)
	body := b.String()

	distinct := strings.Count(body, "simd_kernel_duration_seconds_count{")
	if distinct != obs.MaxSeries+1 { // the cap's worth of labels plus "other"
		t.Errorf("distinct series = %d, want %d", distinct, obs.MaxSeries+1)
	}
	if !strings.Contains(body, `simd_kernel_duration_seconds_count{kernel="other"}`) {
		t.Fatal(`no "other" series after exceeding the cardinality cap`)
	}
	if other := metricValue(t, body, `simd_kernel_duration_seconds_count{kernel="other"}`); other != extra {
		t.Errorf(`"other" holds %v observations, want %d`, other, extra)
	}
}

// TestJobAfterCursor pins the incremental row fetch: JobAfter elides the
// first N rows and NextAfter is the high-water mark a client passes back,
// so polling a long job re-downloads nothing. Covers the library surface
// and the GET /v1/jobs/{id}?after=N wire form, including cursor validation.
func TestJobAfterCursor(t *testing.T) {
	defer leakcheck.Check(t)()
	svc := New(Options{})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	js, err := svc.SubmitJob(context.Background(), JobRequest{
		Batch: fastBatch(
			"stream:test=COPY,elems=1024,reps=1",
			"stream:test=SCALE,elems=1024,reps=1",
			"transpose:variant=Naive,n=64"),
	})
	if err != nil {
		t.Fatal(err)
	}
	final := pollJob(t, svc, js.ID)
	if final.State != JobDone || len(final.Rows) != 3 {
		t.Fatalf("final: state=%s rows=%d, want done/3", final.State, len(final.Rows))
	}

	full, ok := svc.JobAfter(js.ID, 0)
	if !ok || len(full.Rows) != 3 || full.NextAfter != 3 {
		t.Fatalf("JobAfter(0): rows=%d next_after=%d, want 3/3", len(full.Rows), full.NextAfter)
	}
	tail, ok := svc.JobAfter(js.ID, 2)
	if !ok || len(tail.Rows) != 1 || tail.NextAfter != 3 {
		t.Fatalf("JobAfter(2): rows=%d next_after=%d, want 1/3", len(tail.Rows), tail.NextAfter)
	}
	if tail.Rows[0].Workload != full.Rows[2].Workload {
		t.Errorf("JobAfter(2) row = %q, want the third row %q", tail.Rows[0].Workload, full.Rows[2].Workload)
	}
	if caught, ok := svc.JobAfter(js.ID, 3); !ok || len(caught.Rows) != 0 || caught.NextAfter != 3 {
		t.Errorf("JobAfter(3) at the high-water mark: rows=%d, want 0 (caught up, not an error)", len(caught.Rows))
	}

	// Wire form: ?after=2 yields the tail with the same high-water mark.
	res, err := http.Get(ts.URL + "/v1/jobs/" + js.ID + "?after=2")
	if err != nil {
		t.Fatal(err)
	}
	var wire JobStatus
	if err := json.NewDecoder(res.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || len(wire.Rows) != 1 || wire.NextAfter != 3 {
		t.Fatalf("GET ?after=2: status=%d rows=%d next_after=%d, want 200/1/3",
			res.StatusCode, len(wire.Rows), wire.NextAfter)
	}

	for _, bad := range []string{"bogus", "-1", "1.5"} {
		res, err := http.Get(ts.URL + "/v1/jobs/" + js.ID + "?after=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("GET ?after=%s: status=%d, want 400", bad, res.StatusCode)
		}
	}
}
