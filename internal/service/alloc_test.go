package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"riscvmem/internal/run"
)

// raceEnabled is set by race_test.go in -race builds, whose
// instrumentation changes allocation counts.
var raceEnabled bool

// warmBatchAllocs bounds the heap allocations of one warm 64-row
// Service.Batch: 2 devices × 32 memoized specs. It measures 143 with
// Go 1.24 on x86-64 (at every GOMAXPROCS), down from 639 when every job
// took its own device digest and every spec built and sorted throwaway
// maps, from 202 when a named-device request still built every preset
// and each transpose spec a list of variants, from 179 when every job's
// kernel histogram rendered its workload's name again, and from 147 when
// the runner started its worker goroutines for a batch of store hits; the
// bound leaves a 10% margin.
const warmBatchAllocs = 157

// warmSpecs is the 32 specs of the warm allocation guards: small cells of
// every kernel family.
func warmSpecs(t *testing.T) []run.WorkloadSpec {
	var specs []run.WorkloadSpec
	for _, test := range []string{"COPY", "SCALE", "SUM", "TRIAD"} {
		for _, n := range []int{256, 512, 1024} {
			specs = append(specs, run.MustParseWorkloadSpec(fmt.Sprintf("stream:test=%s,elems=%d,cores=1,reps=1", test, n)))
		}
	}
	for _, v := range []string{"Naive", "Parallel", "Blocking", "Manual_blocking", "Dynamic"} {
		for _, n := range []int{16, 32} {
			specs = append(specs, run.MustParseWorkloadSpec(fmt.Sprintf("transpose:variant=%s,n=%d", v, n)))
		}
	}
	for _, v := range []string{"Naive", "Unit-stride", "1D_kernels", "Memory", "Parallel"} {
		for _, wh := range [][2]int{{20, 20}, {24, 20}} {
			specs = append(specs, run.MustParseWorkloadSpec(fmt.Sprintf("gblur:variant=%s,w=%d,h=%d,c=3,f=19", v, wh[0], wh[1])))
		}
	}
	if len(specs) != 32 {
		t.Fatalf("%d specs, want 32", len(specs))
	}
	return specs
}

// TestWarmBatchAllocs is the allocation guard on the warm request path:
// spec resolution, the runner's per-job work and the memo reads of a
// fully memoized batch.
func TestWarmBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s := New(Options{Parallelism: 2})
	req := BatchRequest{Devices: []string{"MangoPi", "VisionFive"}, Workloads: warmSpecs(t)}
	ctx := context.Background()
	if _, err := s.Batch(ctx, req); err != nil { // cold: fills the memo store
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		resp, err := s.Batch(ctx, req)
		if err != nil || len(resp.Results) != 64 || resp.Cache.RequestMisses != 0 {
			t.Fatalf("warm batch: %v", err)
		}
	})
	t.Logf("warm 64-row batch: %.0f allocations", allocs)
	if allocs > warmBatchAllocs {
		t.Errorf("warm 64-row batch: %.0f allocations, bound %d", allocs, warmBatchAllocs)
	}
}

// warmHTTPBatchAllocs bounds the heap allocations of the same warm batch
// served through NewHandler, request and recorder included. It measures
// 43 with Go 1.24 on x86-64 (at every GOMAXPROCS), down from 1011 when
// every request body was decoded and planned again and from 47 when the
// runner started its worker goroutines for a batch of store hits; the
// bound leaves a 10% margin.
const warmHTTPBatchAllocs = 47

// TestWarmHTTPBatchAllocs is the allocation guard on the HTTP request
// path: body read, plan cache hit, the warm batch, and the spliced reply.
func TestWarmHTTPBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	body, err := json.Marshal(BatchRequest{Devices: []string{"MangoPi", "VisionFive"}, Workloads: warmSpecs(t)})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(New(Options{Parallelism: 2}))
	post := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("warm batch: HTTP %d %s", w.Code, w.Body)
		}
	}
	post() // cold: fills the memo store and the plan cache
	allocs := testing.AllocsPerRun(50, post)
	t.Logf("warm 64-row HTTP batch: %.0f allocations", allocs)
	if allocs > warmHTTPBatchAllocs {
		t.Errorf("warm 64-row HTTP batch: %.0f allocations, bound %d", allocs, warmHTTPBatchAllocs)
	}
}
