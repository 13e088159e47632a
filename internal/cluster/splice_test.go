package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"riscvmem/internal/run"
	"riscvmem/internal/service"
	"riscvmem/internal/sim"
)

// blockOnce registers the blocking workload once: the registry is
// process-wide.
var blockOnce sync.Once

// registerBlocker registers "splice-test-block", a workload that waits for
// its context to end: with a request timeout it turns the rest of a serial
// batch into context-skipped rows.
func registerBlocker() {
	blockOnce.Do(func() {
		run.MustRegister(run.NewFunc("splice-test-block",
			func(ctx context.Context, m *sim.Machine) (run.Result, error) {
				<-ctx.Done()
				return run.Result{}, ctx.Err()
			}))
	})
}

// jsonFieldNames lists a struct's JSON field names in declaration order,
// an embedded struct as its type name.
func jsonFieldNames(t reflect.Type) []string {
	var names []string
	for i := range t.NumField() {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Anonymous {
			name = f.Type.Name()
		}
		names = append(names, name)
	}
	return names
}

// TestSplicedRepliesMatchEncodingJSON pins the reply writer: a /v1/batch or
// /v1/sweep body is exactly json.Marshal of its Response plus a newline,
// sent with its Content-Length, whether its rows were spliced from the
// memo store's stored JSON (a standalone handler, from the memory tier or
// the disk tier) or encoded (failed and context-skipped rows, sweep rows,
// every coordinator row). Each Response must be the one an in-process
// Service computes for the same request; only `cache` is taken from the
// reply, since lifetime counters differ between servers.
func TestSplicedRepliesMatchEncodingJSON(t *testing.T) {
	// The writer spells out these fields; a new one must be taught to it
	// (and to ResultRow.bare).
	if got, want := jsonFieldNames(reflect.TypeOf(service.Response{})), []string{"results", "cache", "errors"}; !slices.Equal(got, want) {
		t.Fatalf("Response JSON fields %v, the reply writer splices %v", got, want)
	}
	if got, want := jsonFieldNames(reflect.TypeOf(service.ResultRow{})), []string{"Result", "cell", "speedup", "bandwidth_vs_base", "error"}; !slices.Equal(got, want) {
		t.Fatalf("ResultRow JSON fields %v, the reply writer knows %v", got, want)
	}
	registerBlocker()
	ctx := context.Background()
	dir := t.TempDir()
	standaloneOver := func(dir string) *httptest.Server {
		store, err := run.OpenStore(dir, 0, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		// One host worker: a timed-out batch then fails the same rows as
		// the in-process reference.
		srv := httptest.NewServer(service.NewHandler(service.New(service.Options{Store: store, Parallelism: 1})))
		t.Cleanup(srv.Close)
		return srv
	}
	alone := standaloneOver(dir)
	_, clustered := httpCluster(t, Options{})
	reference := service.New(service.Options{Parallelism: 1})

	const batch = `{"devices":["MangoPi","VisionFive"],
		"workloads":["stream:test=TRIAD,elems=4096,reps=1","transpose:variant=Blocking,n=128"]}`
	cases := []struct {
		name, path, body string
		// timed: the request's deadline fails and skips rows. Which ones a
		// coordinator fails depends on its workers' scheduling, so its
		// reply is checked against the Response it decodes to.
		timed bool
	}{
		{name: "all-miss batch", path: "/v1/batch", body: batch},
		{name: "all-hit batch", path: "/v1/batch", body: batch},
		{name: "failed and skipped rows", path: "/v1/batch", timed: true, body: `{"devices":["MangoPi"],
			"workloads":["stream:test=COPY,elems=4096,reps=1","stream:test=COPY,elems=400000000,reps=1",
			"splice-test-block","transpose:variant=Naive,n=64"],"options":{"timeout_ms":250}}`},
		{name: "sweep", path: "/v1/sweep", body: `{"device":"MangoPi","axes":["l2=base,128KiB"],
			"workloads":["stream:test=TRIAD,elems=4096,reps=1","transpose:variant=Blocking,n=128"]}`},
	}
	for _, tc := range cases {
		want := referenceReply(t, ctx, reference, tc.path, tc.body)
		t.Run(tc.name, func(t *testing.T) {
			got := checkReply(t, alone.URL+tc.path, tc.body, want)
			if tc.timed {
				if len(got.Errors) != 2 || !strings.HasPrefix(got.Errors[1], "2 jobs skipped") {
					t.Errorf("errors %q, want the failed row and two skipped rows", got.Errors)
				}
				want = nil
			}
			checkReply(t, clustered+tc.path, tc.body, want)
		})
	}

	// A restarted daemon serves the batch from the disk tier: rows spliced
	// from the payloads the first process wrote.
	alone.Close()
	restarted := standaloneOver(dir)
	got := checkReply(t, restarted.URL+"/v1/batch", batch, referenceReply(t, ctx, reference, "/v1/batch", batch))
	if tiers := got.Cache.RequestTiers; got.Cache.RequestMisses != 0 || tiers.DiskHits != uint64(len(got.Results)) {
		t.Errorf("restarted daemon: %d misses, %d disk hits for %d rows; want every row from disk",
			got.Cache.RequestMisses, tiers.DiskHits, len(got.Results))
	}
}

// referenceReply serves a request in process, through no HTTP handler.
func referenceReply(t *testing.T, ctx context.Context, svc *service.Service, path, body string) *service.Response {
	t.Helper()
	var (
		resp *service.Response
		err  error
	)
	switch path {
	case "/v1/batch":
		var req service.BatchRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		resp, err = svc.Batch(ctx, req)
	case "/v1/sweep":
		var req service.SweepRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		resp, err = svc.Sweep(ctx, req)
	}
	if err != nil {
		t.Fatalf("in-process %s: %v", path, err)
	}
	return resp
}

// checkReply POSTs body and requires a 200 whose body is json.Marshal(want)
// plus a newline — want's cache block replaced by the reply's — sent with
// its Content-Length. A nil want checks the body against the Response it
// decodes to. It returns that decoded Response.
func checkReply(t *testing.T, url, body string, want *service.Response) *service.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d %s", url, resp.StatusCode, raw)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
		t.Errorf("POST %s: Content-Length %q for a %d-byte body", url, cl, len(raw))
	}
	var got service.Response
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("POST %s: body is not a Response: %v\n%s", url, err, raw)
	}
	if want == nil {
		want = &got
	}
	expect := *want
	expect.Cache = got.Cache
	enc, err := json.Marshal(&expect)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(enc)+"\n" {
		t.Errorf("POST %s: body is not json.Marshal of its Response plus a newline:\ngot  %q\nwant %q", url, raw, string(enc)+"\n")
	}
	return &got
}
