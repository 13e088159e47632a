package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"riscvmem/internal/run"
	"riscvmem/internal/sim"
)

// TestHTTPEndpoints drives the full wire protocol through a live listener:
// health, listings, batch (both workload JSON forms), sweep, and the error
// statuses.
func TestHTTPEndpoints(t *testing.T) {
	svc := New(Options{})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	post := func(path, body string) (int, []byte) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	// Health.
	code, body := get("/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", code, body)
	}

	// Listings.
	code, body = get("/v1/devices")
	if code != http.StatusOK {
		t.Fatalf("devices: %d %s", code, body)
	}
	var devs []DeviceInfo
	if err := json.Unmarshal(body, &devs); err != nil || len(devs) != 4 {
		t.Fatalf("devices payload: %v %s", err, body)
	}
	code, body = get("/v1/workloads")
	if code != http.StatusOK {
		t.Fatalf("workloads: %d %s", code, body)
	}
	var winfo WorkloadsInfo
	if err := json.Unmarshal(body, &winfo); err != nil || len(winfo.Kernels) < 3 {
		t.Fatalf("workloads payload: %v %s", err, body)
	}

	// Batch, string and object workload forms mixed.
	code, body = post("/v1/batch", `{
		"devices": ["MangoPi"],
		"workloads": [
			"stream:test=TRIAD,elems=1024,reps=1",
			{"kernel": "transpose", "params": {"variant": "Naive", "n": "64"}}
		]
	}`)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("batch payload: %v %s", err, body)
	}
	if len(resp.Results) != 2 || resp.Results[0].Seconds <= 0 || resp.Results[1].Seconds <= 0 {
		t.Fatalf("batch results: %+v", resp.Results)
	}
	if resp.Results[0].Workload != "stream/TRIAD" || resp.Results[1].Workload != "transpose/Naive" {
		t.Errorf("batch row identities: %q, %q", resp.Results[0].Workload, resp.Results[1].Workload)
	}

	// Sweep.
	code, body = post("/v1/sweep", `{
		"device": "MangoPi",
		"axes": ["l2=base,128KiB"],
		"workloads": ["transpose:variant=Naive,n=64"]
	}`)
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %s", code, body)
	}
	var sresp Response
	if err := json.Unmarshal(body, &sresp); err != nil {
		t.Fatalf("sweep payload: %v %s", err, body)
	}
	if len(sresp.Results) != 2 {
		t.Fatalf("sweep rows: %+v", sresp.Results)
	}
	for _, row := range sresp.Results {
		if len(row.Cell) != 1 || row.Speedup <= 0 {
			t.Errorf("sweep row missing cell/deltas: %+v", row)
		}
	}

	// Errors: malformed JSON, unknown field, unknown device/kernel → 400
	// with an "error" body.
	for _, tc := range []struct{ path, body string }{
		{"/v1/batch", `{`},
		{"/v1/batch", `{"wrkloads": []}`},
		{"/v1/batch", `{"devices": ["Atari"], "workloads": ["stream/TRIAD"]}`},
		{"/v1/batch", `{"workloads": ["warp:speed=9"]}`},
		{"/v1/sweep", `{"device": "MangoPi", "axes": ["warp=9"], "workloads": ["stream/TRIAD"]}`},
	} {
		code, body = post(tc.path, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400 (%s)", tc.path, tc.body, code, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("POST %s error body: %s", tc.path, body)
		}
	}

	// Method guard: GET on a POST route is a 405.
	if resp, err := http.Get(ts.URL + "/v1/batch"); err == nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/batch: %d, want 405", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestHTTPSweepExecutionFailure maps a validated sweep that fails during
// execution to 500 — not 400, which would mislead the client into
// "fixing" a correct request. (Batch handles the same failure class as a
// 200 partial-success row.)
func TestHTTPSweepExecutionFailure(t *testing.T) {
	registerFailing()
	svc := New(Options{})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"device":"MangoPi","axes":["maxinflight=base,2"],"workloads":["svc-test-fail"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("sweep execution failure: %d %s, want 500", resp.StatusCode, body)
	}
}

// nanOnce registers the NaN workload once: the registry is process-wide.
var nanOnce sync.Once

// TestHTTPUnencodableReplyIs500 pins that a reply encoding/json refuses —
// here a registered workload's NaN seconds — is a complete 500 with an
// error body and a log line, never a 200 status line over a torn body.
func TestHTTPUnencodableReplyIs500(t *testing.T) {
	nanOnce.Do(func() {
		err := run.Register(run.NewFunc("svc-test-nan",
			func(ctx context.Context, m *sim.Machine) (run.Result, error) {
				return run.Result{Seconds: math.NaN()}, nil
			}))
		if err != nil {
			panic(err)
		}
	})
	var (
		mu     sync.Mutex
		logged []string
	)
	svc := New(Options{Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"devices":["MangoPi"],"workloads":["svc-test-nan"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("unencodable reply: HTTP %d %q, want 500", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], "NaN") {
		t.Errorf("500 body %q (%v), want an error naming the NaN", body, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.ContainsFunc(logged, func(line string) bool { return strings.Contains(line, "NaN") }) {
		t.Errorf("logged %q, want a line naming the encode failure", logged)
	}
}

// TestBatchCarriesStoredRows pins that the reply writer has rows to
// splice: cold and warm, every keyed row of a batch reaches the handler
// with json.Marshal of its Result from the memo store, and a row of an
// unkeyed (here failing) workload with none.
func TestBatchCarriesStoredRows(t *testing.T) {
	registerFailing()
	svc := New(Options{})
	req := BatchRequest{Devices: []string{"MangoPi"}, Workloads: []run.WorkloadSpec{
		run.MustParseWorkloadSpec("stream:test=COPY,elems=1024,reps=1"),
		run.MustParseWorkloadSpec("transpose:variant=Naive,n=64"),
		{Kernel: "svc-test-fail"},
	}}
	p, err := svc.plan(context.Background(), JobRequest{Batch: &req})
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "warm"} {
		resp, rowJSON, err := svc.run(context.Background(), p)
		if err != nil {
			t.Fatalf("%s batch: %v", pass, err)
		}
		if len(rowJSON) != len(resp.Results) {
			t.Fatalf("%s batch: %d stored rows for %d results", pass, len(rowJSON), len(resp.Results))
		}
		for i, row := range resp.Results[:2] {
			want, err := json.Marshal(row.Result)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rowJSON[i], want) {
				t.Errorf("%s row %d: stored JSON %q, want %q", pass, i, rowJSON[i], want)
			}
		}
		if rowJSON[2] != nil {
			t.Errorf("%s: the failed row carries stored JSON %q", pass, rowJSON[2])
		}
	}
}

// TestHTTPOverload maps ErrOverloaded to 429 with a Retry-After hint.
func TestHTTPOverload(t *testing.T) {
	svc := New(Options{MaxInFlight: 1, MaxQueue: -1}) // no queue: saturation 429s
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	release, err := svc.admit(context.Background()) // occupy the only slot directly
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"devices":["MangoPi"],"workloads":["stream:test=COPY,elems=1024,reps=1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("overloaded POST: %d %s, want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}
}

// TestHTTPJobs drives the async job API over the wire: submit → 202 with a
// Location to poll → done with rows → list → cancel semantics and 404s.
func TestHTTPJobs(t *testing.T) {
	svc := New(Options{})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	client := ts.Client()

	resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{
		"batch": {"devices": ["MangoPi"], "workloads": ["stream:test=COPY,elems=1024,reps=1"]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s, want 202", resp.StatusCode, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil || js.ID == "" {
		t.Fatalf("submit payload: %v %s", err, body)
	}
	loc := resp.Header.Get("Location")
	if loc != "/v1/jobs/"+js.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, js.ID)
	}

	// Poll the Location to completion.
	deadline := time.Now().Add(5 * time.Second)
	for !js.State.terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", js.State)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err = client.Get(ts.URL + loc)
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d %s", resp.StatusCode, body)
		}
		js = JobStatus{}
		if err := json.Unmarshal(body, &js); err != nil {
			t.Fatal(err)
		}
	}
	if js.State != JobDone || len(js.Rows) != 1 || js.Response == nil {
		t.Fatalf("final job: %+v", js)
	}

	// Listing includes it (rows elided on the wire too).
	resp, err = client.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var list []JobStatus
	if err := json.Unmarshal(body, &list); err != nil || len(list) != 1 || len(list[0].Rows) != 0 {
		t.Fatalf("list: %v %s", err, body)
	}

	// DELETE on a finished job returns its snapshot unchanged; unknown IDs
	// are 404 on both GET and DELETE.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+loc, nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("DELETE finished job: %d, want 200", resp.StatusCode)
	}
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		req, _ := http.NewRequest(method, ts.URL+"/v1/jobs/deadbeef00000000", nil)
		resp, err = client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s unknown job: %d, want 404", method, resp.StatusCode)
		}
	}

	// A submit that fails validation is a synchronous 400 — no job stored.
	resp, err = client.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"batch": {"devices": ["Atari"], "workloads": ["stream/TRIAD"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid submit: %d, want 400", resp.StatusCode)
	}
}

// TestHTTPErrorClassification pins writeError's status taxonomy directly:
// only explicitly classified client mistakes earn a 4xx; an unexpected
// server-side failure is a 500, never blamed on the request as a 400.
func TestHTTPErrorClassification(t *testing.T) {
	svc := New(Options{})
	cases := []struct {
		err        error
		status     int
		retryAfter bool
	}{
		{&ValidationError{Err: errors.New("bad spec")}, http.StatusBadRequest, false},
		{&OverloadError{RetryAfter: 3 * time.Second, reason: ErrOverloaded}, http.StatusTooManyRequests, true},
		{&OverloadError{RetryAfter: time.Second, reason: ErrRateLimited}, http.StatusTooManyRequests, true},
		{ErrDraining, http.StatusServiceUnavailable, false},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, false},
		{&ExecutionError{Err: errors.New("sim blew up")}, http.StatusInternalServerError, false},
		{errors.New("unclassified surprise"), http.StatusInternalServerError, false},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		svc.writeError(rec, tc.err)
		if rec.Code != tc.status {
			t.Errorf("writeError(%v) = %d, want %d", tc.err, rec.Code, tc.status)
		}
		if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
			t.Errorf("writeError(%v) Retry-After present=%v, want %v", tc.err, got, tc.retryAfter)
		}
		if rec.Header().Get("X-Content-Type-Options") != "nosniff" {
			t.Errorf("writeError(%v) missing nosniff header", tc.err)
		}
	}
}
