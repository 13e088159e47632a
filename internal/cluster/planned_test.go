package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"riscvmem/internal/cluster/protocol"
	"riscvmem/internal/run"
	"riscvmem/internal/service"
)

// rawReply POSTs body and returns the status and the reply's top-level
// fields, undecoded.
func rawReply(t *testing.T, method, url, body string) (int, map[string]json.RawMessage) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatalf("%s %s: HTTP %d body is not a JSON object: %v", method, url, resp.StatusCode, err)
	}
	return resp.StatusCode, fields
}

// servedRows serves one request and returns what a client sees of it: the
// raw results and errors of its Response. An async job is followed to its
// end and its final response taken.
func servedRows(t *testing.T, base, path, body string) string {
	t.Helper()
	status, fields := rawReply(t, http.MethodPost, base+path, body)
	if path == "/v1/jobs" {
		if status != http.StatusAccepted {
			t.Fatalf("POST %s: HTTP %d %s", path, status, fields["error"])
		}
		var id string
		if err := json.Unmarshal(fields["id"], &id); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			_, fields = rawReply(t, http.MethodGet, base+"/v1/jobs/"+id, "")
			if state := string(fields["state"]); state == `"done"` {
				break
			} else if state != `"queued"` && state != `"running"` {
				t.Fatalf("job %s ended %s: %s", id, state, fields["error"])
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s not done after 30s", id)
			}
		}
		if err := json.Unmarshal(fields["response"], &fields); err != nil {
			t.Fatal(err)
		}
	} else if status != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d %s", path, status, fields["error"])
	}
	return string(fields["results"]) + " " + string(fields["errors"])
}

// TestRepeatedBodiesReplyAlike posts each planned endpoint's body twice to
// one server — the second time a plan cache hit — and once to a fresh
// server, standalone and behind a coordinator: every reply carries
// byte-identical results and errors.
func TestRepeatedBodiesReplyAlike(t *testing.T) {
	// The over-RAM cell fails on MangoPi: a partial success, with errors.
	const batch = `{"devices":["MangoPi"],
		"workloads":["stream:test=TRIAD,elems=4096,reps=1","stream:test=COPY,elems=400000000,reps=1",
		"transpose:variant=Blocking,n=64"]}`
	requests := []struct{ path, body string }{
		{"/v1/batch", batch},
		{"/v1/sweep", `{"device":"MangoPi","axes":["l2=base,128KiB"],
			"workloads":["stream:test=TRIAD,elems=4096,reps=1","transpose:variant=Blocking,n=64"]}`},
		{"/v1/jobs", `{"batch":` + batch + `}`},
	}
	standalone := func() string {
		srv := httptest.NewServer(service.NewHandler(service.New(service.Options{})))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	clustered := func() string {
		_, url := httpCluster(t, Options{})
		return url
	}
	for _, server := range []struct {
		name  string
		start func() string
	}{{"standalone", standalone}, {"coordinator", clustered}} {
		t.Run(server.name, func(t *testing.T) {
			reused, fresh := server.start(), server.start()
			for _, rq := range requests {
				first := servedRows(t, reused, rq.path, rq.body)
				if second := servedRows(t, reused, rq.path, rq.body); second != first {
					t.Errorf("%s posted again:\n%s\nfirst:\n%s", rq.path, second, first)
				}
				if other := servedRows(t, fresh, rq.path, rq.body); other != first {
					t.Errorf("%s on a fresh server:\n%s\nrepeated server:\n%s", rq.path, other, first)
				}
			}
		})
	}
}

// TestAssignmentFitsWorkerReply posts a batch body just under the request
// limit whose spec pads a number with zeros, so that its recipe re-encodes
// past service.MaxBodyBytes, to a coordinator with one worker speaking
// HTTP: every assignment must reach the worker, and the reply equal a
// standalone daemon's rather than end in deadline rows. A recipe too large
// for any assignment is refused before a cell is routed.
func TestAssignmentFitsWorkerReply(t *testing.T) {
	coord := New(Options{Logf: t.Logf})
	srv := httptest.NewServer(NewCoordinatorHandler(coord, t.Logf))
	w := startWorker(t, NewClient(srv.URL), "w1", nil)
	defer func() {
		w.stop()
		coord.Close()
		srv.Close()
	}()
	waitForWorkers(t, coord, 1)
	alone := httptest.NewServer(service.NewHandler(service.New(service.Options{})))
	defer alone.Close()

	const head, tail = `{"devices":["MangoPi"],"workloads":["stream:test=COPY,elems=`, `64,reps=1"],"options":{"timeout_ms":5000}}`
	body := head + strings.Repeat("0", service.MaxBodyBytes-len(head)-len(tail)-16) + tail
	var req service.JobRequest
	if err := json.Unmarshal([]byte(`{"batch":`+body+`}`), &req); err != nil {
		t.Fatal(err)
	}
	if recipe, err := json.Marshal(req); err != nil || len(recipe) <= service.MaxBodyBytes {
		t.Fatalf("the recipe is %d bytes (%v); the test wants one over the %d-byte request limit",
			len(recipe), err, service.MaxBodyBytes)
	}
	want := servedRows(t, alone.URL, "/v1/batch", body)
	if got := servedRows(t, srv.URL, "/v1/batch", body); got != want {
		t.Errorf("coordinator rows:\n%.200s\nstandalone rows:\n%.200s", got, want)
	}

	huge := run.MustParseWorkloadSpec("stream:test=COPY,elems=" + strings.Repeat("0", maxReplyBytes) + "64,reps=1")
	_, err := coord.Service().Batch(context.Background(), service.BatchRequest{
		Devices: []string{"MangoPi"}, Workloads: []run.WorkloadSpec{huge},
		Options: service.RequestOptions{TimeoutMS: 5000},
	})
	var valErr *service.ValidationError
	if !errors.As(err, &valErr) || !strings.Contains(err.Error(), "more than the") {
		t.Errorf("a recipe over the reply limit: %v, want a ValidationError refusing it", err)
	}
	coord.mu.Lock()
	defer coord.mu.Unlock()
	if coord.dispatchCount != 1 {
		t.Errorf("%d dispatches, want 1: the refused recipe must not be routed", coord.dispatchCount)
	}
}

// TestDispatchShipsOneRecipe pins the coordinator half of encode-once: the
// assignments of one dispatch carry the very bytes Execute encoded the
// request to for its size check, not an encoding per poll.
func TestDispatchShipsOneRecipe(t *testing.T) {
	ctx := context.Background()
	coord := New(Options{AssignmentCells: 1, Logf: t.Logf})
	defer coord.Close()
	if _, err := coord.Register(ctx, protocol.RegisterRequest{WorkerID: "w"}); err != nil {
		t.Fatalf("register: %v", err)
	}
	specs := []string{"stream:test=COPY,elems=64,reps=1", "stream:test=SCALE,elems=64,reps=1"}
	startBatch(t, coord, service.RequestOptions{}, specs...)
	a1, a2 := mustPoll(t, coord, "w"), mustPoll(t, coord, "w")

	req := service.BatchRequest{Devices: []string{"MangoPi"}}
	for _, s := range specs {
		req.Workloads = append(req.Workloads, run.MustParseWorkloadSpec(s))
	}
	want, err := json.Marshal(service.JobRequest{Batch: &req})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*protocol.Assignment{a1, a2} {
		if !bytes.Equal(a.Request, want) {
			t.Errorf("assignment %s recipe:\n%s\nwant the request's encoding:\n%s", a.ID, a.Request, want)
		}
	}
	if len(a1.Request) > 0 && len(a2.Request) > 0 && &a1.Request[0] != &a2.Request[0] {
		t.Error("the dispatch's assignments carry separately encoded recipes, want the one encoding")
	}
}
