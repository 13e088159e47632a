package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"riscvmem/internal/cluster/protocol"
	"riscvmem/internal/run"
	"riscvmem/internal/service"
)

// These tests pin what falls out of the coordinator being a service.Executor
// under an ordinary service.Service: one wire with the standalone daemon,
// and the service's async jobs, drain and admission, fleet-wide.

// httpCluster is a coordinator behind its real HTTP handler with two
// in-process workers speaking HTTP to it.
func httpCluster(t *testing.T, opt Options) (*Coordinator, string) {
	t.Helper()
	opt.Logf = t.Logf
	coord := New(opt)
	srv := httptest.NewServer(NewCoordinatorHandler(coord, t.Logf))
	client := NewClient(srv.URL)
	w1 := startWorker(t, client, "w1", nil)
	w2 := startWorker(t, client, "w2", nil)
	t.Cleanup(func() {
		w1.stop()
		w2.stop()
		coord.Close()
		srv.Close()
	})
	waitForWorkers(t, coord, 2)
	return coord, srv.URL
}

// exchange performs one HTTP request and returns the status, headers and
// the JSON body decoded generically.
func exchange(t *testing.T, method, url, body string) (int, http.Header, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("%s %s: decoding (HTTP %d): %v", method, url, resp.StatusCode, err)
	}
	return resp.StatusCode, resp.Header, decoded
}

// parityRequests is a table of requests — good, bad and partially failing —
// for a handler built with MaxJobs 16.
var parityRequests = []struct{ name, path, body string }{
	{"valid batch", "/v1/batch", `{"devices":["MangoPi","VisionFive"],
		"workloads":["stream:test=TRIAD,elems=4096,reps=1","transpose:variant=Blocking,n=128"]}`},
	{"valid sweep", "/v1/sweep", `{"device":"MangoPi","axes":["l2=128KiB,256KiB"],
		"workloads":["stream:test=TRIAD,elems=4096,reps=1","transpose:variant=Blocking,n=128"]}`},
	{"unknown device", "/v1/batch", `{"devices":["PDP-11"],"workloads":["stream/TRIAD"]}`},
	{"no workloads", "/v1/batch", `{"devices":["MangoPi"]}`},
	{"oversized grid", "/v1/sweep", `{"device":"MangoPi","axes":["maxinflight=1,2,4,8","dramlat=50,100,200"],
		"workloads":["stream/TRIAD","stream/COPY"]}`},
	{"unknown JSON field", "/v1/batch", `{"devices":["MangoPi"],"workload":["stream/TRIAD"]}`},
	{"over-RAM cell", "/v1/batch", `{"devices":["MangoPi"],
		"workloads":["stream:test=COPY,elems=400000000,reps=1","stream:test=COPY,elems=4096,reps=1"]}`},
}

// TestWireParityWithStandalone posts one table of requests — good, bad and
// partially failing — to a standalone daemon's handler and to a coordinator
// with two workers, and requires the same HTTP status and the same body,
// the `errors` array included. Only `cache` may differ: a coordinator's is
// request-scoped, a daemon's carries lifetime totals.
func TestWireParityWithStandalone(t *testing.T) {
	const maxJobs = 16
	alone := httptest.NewServer(service.NewHandler(service.New(service.Options{MaxJobs: maxJobs})))
	defer alone.Close()
	_, clustered := httpCluster(t, Options{MaxJobs: maxJobs})

	for _, tc := range parityRequests {
		t.Run(tc.name, func(t *testing.T) {
			wantStatus, _, want := exchange(t, http.MethodPost, alone.URL+tc.path, tc.body)
			gotStatus, _, got := exchange(t, http.MethodPost, clustered+tc.path, tc.body)
			if gotStatus != wantStatus {
				t.Errorf("HTTP %d from the coordinator, %d standalone", gotStatus, wantStatus)
			}
			delete(want, "cache")
			delete(got, "cache")
			if !reflect.DeepEqual(got, want) {
				t.Errorf("bodies differ:\ncoordinator %v\nstandalone  %v", got, want)
			}
			if tc.name == "over-RAM cell" {
				// Partial success, and the cell is named once: the runner
				// prefixes "<workload> on <device>: ", nobody re-prefixes it.
				errs, _ := got["errors"].([]any)
				if gotStatus != http.StatusOK || len(errs) != 1 {
					t.Fatalf("HTTP %d, errors %v; want a 200 with one failed cell", gotStatus, errs)
				}
				if msg := errs[0].(string); strings.Count(msg, " on MangoPi: ") != 1 {
					t.Errorf("error %q names its cell %d times, want once", msg, strings.Count(msg, " on MangoPi: "))
				}
			}
		})
	}
}

// TestRepliesAreOneCompactEncoding requires every JSON reply — the parity
// table, health, a listing, a job's submission and status, a 404 — from a
// standalone handler and from a coordinator to be one compact encoding sent
// with its Content-Length, never chunked.
func TestRepliesAreOneCompactEncoding(t *testing.T) {
	const maxJobs = 16
	alone := httptest.NewServer(service.NewHandler(service.New(service.Options{MaxJobs: maxJobs})))
	defer alone.Close()
	_, clustered := httpCluster(t, Options{MaxJobs: maxJobs})

	type request struct{ method, path, body string }
	reqs := []request{
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/v1/devices", ""},
		{http.MethodGet, "/v1/jobs/deadbeef00000000", ""},
		{http.MethodPost, "/v1/jobs", `{"batch":{"devices":["MangoPi"],"workloads":["stream:test=COPY,elems=4096,reps=1"]}}`},
	}
	for _, tc := range parityRequests {
		reqs = append(reqs, request{http.MethodPost, tc.path, tc.body})
	}
	for _, base := range []string{alone.URL, clustered} {
		for _, rq := range reqs {
			if loc := compactReply(t, rq.method, base+rq.path, rq.body); loc != "" {
				compactReply(t, http.MethodGet, base+loc, "") // the job's status
			}
		}
	}
}

// compactReply performs one request, checks that its reply is one compact
// JSON encoding with an exact Content-Length, and returns its Location.
func compactReply(t *testing.T, method, url, body string) string {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading the body: %v", method, url, err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		t.Errorf("%s %s: HTTP %d body is not JSON: %v", method, url, resp.StatusCode, err)
	} else if compact.String() != strings.TrimSuffix(string(raw), "\n") {
		t.Errorf("%s %s: HTTP %d body is not compact:\n%s", method, url, resp.StatusCode, raw)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
		t.Errorf("%s %s: Content-Length %q for a %d-byte body", method, url, cl, len(raw))
	}
	if len(resp.TransferEncoding) > 0 {
		t.Errorf("%s %s: Transfer-Encoding %v, want none", method, url, resp.TransferEncoding)
	}
	return resp.Header.Get("Location")
}

// TestCoordinatorAsyncJob submits a batch to the coordinator as an async
// job, follows it with the ?after=N cursor, and requires the rows gathered
// that way — and the job's final response — to equal the synchronous
// clustered batch.
func TestCoordinatorAsyncJob(t *testing.T) {
	_, url := httpCluster(t, Options{})
	batch := `{"devices":["MangoPi","VisionFive"],
		"workloads":["stream:test=TRIAD,elems=4096,reps=1","stream:test=COPY,elems=4096,reps=1","transpose:variant=Blocking,n=128"]}`

	status, hdr, sub := exchange(t, http.MethodPost, url+"/v1/jobs", `{"batch":`+batch+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: HTTP %d %v, want 202", status, sub)
	}
	id := sub["id"].(string)
	if loc := hdr.Get("Location"); loc != "/v1/jobs/"+id {
		t.Errorf("Location %q, want /v1/jobs/%s", loc, id)
	}

	var streamed []any
	var final map[string]any
	after := 0
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		status, _, snap := exchange(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%s?after=%d", url, id, after), "")
		if status != http.StatusOK {
			t.Fatalf("GET job: HTTP %d %v", status, snap)
		}
		rows, _ := snap["rows"].([]any)
		streamed = append(streamed, rows...)
		if next := int(snap["next_after"].(float64)); next != after+len(rows) {
			t.Fatalf("next_after %d after a cursor of %d returned %d rows", next, after, len(rows))
		} else {
			after = next
		}
		if state := snap["state"]; state == "done" {
			final = snap
			break
		} else if state != "queued" && state != "running" {
			t.Fatalf("job ended %v: %v", state, snap["error"])
		}
		if time.Now().After(deadline) {
			t.Fatal("job not done after 30s")
		}
	}

	_, _, sync := exchange(t, http.MethodPost, url+"/v1/batch", batch)
	want := sync["results"].([]any)
	if got := final["response"].(map[string]any)["results"]; !reflect.DeepEqual(got, want) {
		t.Errorf("job response rows %v\n!= synchronous clustered batch %v", got, want)
	}
	// Streamed rows arrive in completion order; each must be one of the
	// response's rows, and all of them must have been streamed.
	if len(streamed) != len(want) {
		t.Fatalf("streamed %d rows through ?after=N, want %d", len(streamed), len(want))
	}
	for _, row := range streamed {
		found := false
		for _, w := range want {
			found = found || reflect.DeepEqual(row, w)
		}
		if !found {
			t.Errorf("streamed row %v is not a row of the response", row)
		}
	}

	// Nothing executed here, so the per-kernel simulate-latency histogram —
	// which a remote row could only feed a meaningless zero — must not
	// appear; the scheduling and admission series must.
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(page), "simd_kernel_duration_seconds") {
		t.Error("coordinator /metrics exports simd_kernel_duration_seconds")
	}
	for _, series := range []string{
		"\nsimd_cluster_workers 2\n", "\nsimd_queue_depth 0\n", "\nsimd_jobs_stored 1\n",
		"\nsimd_cluster_cells_requeued_total 0\n", "\nsimd_cluster_workers_lost_total 0\n",
		"\nsimd_cluster_cells_quarantined_total 0\n", "\nsimd_request_duration_seconds_count 2\n",
	} {
		if !strings.Contains(string(page), series) {
			t.Errorf("coordinator /metrics lacks %q", strings.TrimSpace(series))
		}
	}
}

// TestCoordinatorJobCancelRevokesQueuedCells deletes a live async job
// whose cells are still queued: the job ends cancelled and a worker that
// joins afterwards is handed nothing.
func TestCoordinatorJobCancelRevokesQueuedCells(t *testing.T) {
	ctx := context.Background()
	coord := New(Options{Logf: t.Logf})
	defer coord.Close()
	svc := coord.Service()

	js, err := svc.SubmitJob(ctx, service.JobRequest{Batch: &service.BatchRequest{
		Devices: []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{
			run.MustParseWorkloadSpec("stream:test=COPY,elems=64,reps=1"),
			run.MustParseWorkloadSpec("stream:test=SCALE,elems=64,reps=1"),
		},
	}})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	// No worker is registered, so once dispatched the cells sit pooled.
	waitFor(t, "the job's cells to be queued", func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return len(coord.unassigned) == 2
	})
	if _, ok := svc.CancelJob(js.ID); !ok {
		t.Fatal("CancelJob: unknown job")
	}
	waitFor(t, "the job to end cancelled", func() bool {
		snap, _ := svc.JobAfter(js.ID, 0)
		return snap.State == service.JobCancelled
	})

	if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: "late"}); err != nil {
		t.Fatalf("register: %v", err)
	}
	poll, err := coord.Poll(ctx, protocol.PollRequest{WorkerID: "late", WaitMS: 50})
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	if poll.Assignment != nil {
		t.Errorf("a cancelled job's cells were still handed out: %+v", poll.Assignment.Cells)
	}
}

// waitFor polls cond until it holds, failing the test after 10 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestCoordinatorDrain pins graceful drain on the coordinator: once
// draining, new work is refused with 503 and /healthz reports it, while
// the dispatch already in flight completes on the still-attached worker
// and the drain then reports clean.
func TestCoordinatorDrain(t *testing.T) {
	ctx := context.Background()
	coord := New(Options{Logf: t.Logf})
	defer coord.Close()
	srv := httptest.NewServer(NewCoordinatorHandler(coord, t.Logf))
	defer srv.Close()

	if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: "a"}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if status, _, body := exchange(t, http.MethodGet, srv.URL+"/healthz", ""); status != http.StatusOK ||
		body["status"] != "ok" || body["workers"] != float64(1) {
		t.Fatalf("healthz before drain: HTTP %d %v", status, body)
	}
	respCh, errCh := startBatch(t, coord, service.RequestOptions{}, "stream:test=COPY,elems=64,reps=1")
	asn := mustPoll(t, coord, "a")

	if !coord.Service().StartDrain() {
		t.Fatal("StartDrain did not flip the state")
	}
	if _, err := coord.Service().Batch(ctx, service.BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("stream:test=COPY,elems=64,reps=1")},
	}); !errors.Is(err, service.ErrDraining) {
		t.Errorf("Batch while draining: %v, want ErrDraining", err)
	}
	if status, _, _ := exchange(t, http.MethodPost, srv.URL+"/v1/batch",
		`{"devices":["MangoPi"],"workloads":["stream/TRIAD"]}`); status != http.StatusServiceUnavailable {
		t.Errorf("POST /v1/batch while draining: HTTP %d, want 503", status)
	}
	if status, _, body := exchange(t, http.MethodGet, srv.URL+"/healthz", ""); status != http.StatusServiceUnavailable ||
		body["status"] != "draining" {
		t.Errorf("healthz while draining: HTTP %d %v, want 503 draining", status, body)
	}

	drained := make(chan service.DrainReport, 1)
	go func() {
		dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		drained <- coord.Service().Drain(dctx)
	}()
	row := protocol.Row{Index: 0, Result: run.Result{Workload: "stream/COPY", Device: "MangoPi", Seconds: 1}}
	if ack, err := coord.ReturnRows(ctx, protocol.RowReturn{
		WorkerID: "a", AssignmentID: asn.ID, Rows: []protocol.Row{row}, Done: true,
	}); err != nil || ack.Accepted != 1 {
		t.Fatalf("return during drain: ack %+v err=%v, want the row accepted", ack, err)
	}
	resp, err := <-respCh, <-errCh
	if err != nil || len(resp.Results) != 1 || resp.Results[0].Result != row.Result {
		t.Fatalf("in-flight batch during drain: %+v, %v; want its row", resp, err)
	}
	if rep := <-drained; !rep.Clean {
		t.Errorf("drain report %+v, want clean", rep)
	}
}

// TestCoordinatorOverloadIs429 pins admission on the coordinator: with one
// slot and no queue, a request arriving while another is dispatched is
// refused with 429 and a Retry-After.
func TestCoordinatorOverloadIs429(t *testing.T) {
	coord := New(Options{Logf: t.Logf, Admission: Admission{MaxInFlight: 1, MaxQueue: -1}})
	defer coord.Close()
	srv := httptest.NewServer(NewCoordinatorHandler(coord, t.Logf))
	defer srv.Close()

	// No workers: the first request holds its slot until its deadline.
	respCh, errCh := startBatch(t, coord, service.RequestOptions{TimeoutMS: 1000}, "stream:test=COPY,elems=64,reps=1")
	waitFor(t, "the first request to be dispatched", func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return len(coord.dispatches) == 1
	})
	status, hdr, body := exchange(t, http.MethodPost, srv.URL+"/v1/batch",
		`{"devices":["MangoPi"],"workloads":["stream/TRIAD"],"options":{"timeout_ms":100}}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second request: HTTP %d %v, want 429", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	if resp, err := <-respCh, <-errCh; err != nil || resp.Results[0].Error != service.DeadlineRowError() {
		t.Errorf("first request: %+v, %v; want its deadline row", resp, err)
	}
}
