package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"riscvmem/internal/run"
)

// postTo serves one POST through h in process and returns the status,
// headers and body of the reply. A non-empty client sets X-Client-ID.
func postTo(h http.Handler, path, body, client string) (int, http.Header, string) {
	r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if client != "" {
		r.Header.Set("X-Client-ID", client)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Code, w.Header(), w.Body.String()
}

// rowsOf returns the raw results and errors of a Response reply: what a
// client sees of the request, less the cache counters.
func rowsOf(t *testing.T, reply string) string {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal([]byte(reply), &fields); err != nil {
		t.Fatalf("reply is not a JSON object: %v\n%s", err, reply)
	}
	return string(fields["results"]) + " " + string(fields["errors"])
}

// len reports how many bodies the plan cache holds.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

const cachedBatch = `{"devices":["MangoPi"],"workloads":["stream:test=COPY,elems=1024,reps=1","transpose:variant=Naive,n=32"]}`

// TestPlanCacheKeepsTheGate pins what a cached body never skips: a
// draining service answers it 503, a client past its rate limit 429, and
// its own timeout_ms still cuts its rows off — each exactly as an uncached
// body is answered.
func TestPlanCacheKeepsTheGate(t *testing.T) {
	t.Run("rate limit", func(t *testing.T) {
		svc := New(Options{ClientRate: 0.001, ClientBurst: 1})
		h := NewHandler(svc)
		if code, _, body := postTo(h, "/v1/batch", cachedBatch, "a"); code != http.StatusOK {
			t.Fatalf("first request: HTTP %d %s", code, body)
		}
		if code, _, body := postTo(h, "/v1/batch", " "+cachedBatch, "b"); code != http.StatusOK {
			t.Fatalf("first request of b: HTTP %d %s", code, body)
		}
		if svc.plans.len() != 2 {
			t.Fatalf("%d cached plans, want 2", svc.plans.len())
		}
		for _, tc := range []struct{ name, body, client string }{
			{"cached", cachedBatch, "a"},
			{"uncached", "  " + cachedBatch, "b"},
		} {
			code, hdr, body := postTo(h, "/v1/batch", tc.body, tc.client)
			if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
				t.Errorf("%s body past the rate limit: HTTP %d (Retry-After %q) %s, want 429",
					tc.name, code, hdr.Get("Retry-After"), body)
			}
		}
		if svc.plans.len() != 2 {
			t.Errorf("a rate-limited body was planned: %d cached plans, want 2", svc.plans.len())
		}
	})
	t.Run("draining", func(t *testing.T) {
		svc := New(Options{})
		h := NewHandler(svc)
		for _, path := range []string{"/v1/batch", "/v1/jobs"} {
			body := cachedBatch
			if path == "/v1/jobs" {
				body = `{"batch":` + cachedBatch + `}`
			}
			if code, _, reply := postTo(h, path, body, ""); code/100 != 2 {
				t.Fatalf("%s: HTTP %d %s", path, code, reply)
			}
		}
		waitFor(t, "the job to finish", func() bool { return svc.activeJobs() == 0 })
		svc.StartDrain()
		for _, tc := range []struct{ name, path, body string }{
			{"cached batch", "/v1/batch", cachedBatch},
			{"cached job", "/v1/jobs", `{"batch":` + cachedBatch + `}`},
			{"uncached batch", "/v1/batch", " " + cachedBatch},
		} {
			if code, _, body := postTo(h, tc.path, tc.body, ""); code != http.StatusServiceUnavailable {
				t.Errorf("%s while draining: HTTP %d %s, want 503", tc.name, code, body)
			}
		}
	})
	t.Run("timeout", func(t *testing.T) {
		name, _, _ := armSlow()
		svc := New(Options{})
		h := NewHandler(svc)
		body := fmt.Sprintf(`{"devices":["MangoPi"],"workloads":[%q],"options":{"timeout_ms":20}}`, name)
		var replies []string
		for _, b := range []string{body, body, " " + body} {
			code, _, reply := postTo(h, "/v1/batch", b, "")
			if code != http.StatusOK || !strings.Contains(reply, "1 job skipped: context deadline exceeded") {
				t.Fatalf("timed-out batch: HTTP %d %s, want a 200 with its row cut off", code, reply)
			}
			replies = append(replies, rowsOf(t, reply))
		}
		if replies[0] != replies[1] || replies[0] != replies[2] {
			t.Errorf("timed-out replies differ:\n%s\n%s\n%s", replies[0], replies[1], replies[2])
		}
		if svc.plans.len() != 2 {
			t.Errorf("%d cached plans, want 2", svc.plans.len())
		}
	})
}

// TestPlanCacheStoresOnlyPlans posts bodies that fail — malformed, an
// unknown field, trailing data, an unknown device, no workloads, over the
// body limit — twice each: both replies are the same 400, and the cache
// stays empty.
func TestPlanCacheStoresOnlyPlans(t *testing.T) {
	svc := New(Options{})
	h := NewHandler(svc)
	over := `{"devices":["MangoPi"],"workloads":["stream:test=COPY,elems=` +
		strings.Repeat("0", MaxBodyBytes) + `64,reps=1"]}`
	for _, tc := range []struct{ name, path, body, want string }{
		{"malformed", "/v1/batch", `{"devices":`, "bad request body"},
		{"unknown field", "/v1/batch", `{"devices":["MangoPi"],"workload":["stream/TRIAD"]}`, "unknown field"},
		{"trailing data", "/v1/sweep", `{"device":"MangoPi","workloads":["stream/TRIAD"]} {}`, "trailing data"},
		{"unknown device", "/v1/batch", `{"devices":["PDP-11"],"workloads":["stream/TRIAD"]}`, "PDP-11"},
		{"no workloads", "/v1/jobs", `{"batch":{"devices":["MangoPi"]}}`, "no workloads"},
		{"over the limit", "/v1/batch", over, "request body too large"},
	} {
		var first string
		for pass := 0; pass < 2; pass++ {
			code, _, body := postTo(h, tc.path, tc.body, "")
			if code != http.StatusBadRequest || !strings.Contains(body, tc.want) {
				t.Errorf("%s, pass %d: HTTP %d %s, want a 400 naming %q", tc.name, pass, code, body, tc.want)
			}
			if pass == 0 {
				first = body
			} else if body != first {
				t.Errorf("%s: second reply %s differs from the first %s", tc.name, body, first)
			}
		}
	}
	if n := svc.plans.len(); n != 0 {
		t.Errorf("%d plans cached from failing bodies, want none", n)
	}
}

// TestPlanCacheKeysExactBytes posts two bodies that differ only in
// whitespace, each twice: they are two entries, and all four replies carry
// the same rows.
func TestPlanCacheKeysExactBytes(t *testing.T) {
	svc := New(Options{})
	h := NewHandler(svc)
	spaced := strings.ReplaceAll(cachedBatch, ",", ", ")
	var want string
	for _, body := range []string{cachedBatch, spaced, cachedBatch, spaced} {
		code, _, reply := postTo(h, "/v1/batch", body, "")
		if code != http.StatusOK {
			t.Fatalf("HTTP %d %s", code, reply)
		}
		if got := rowsOf(t, reply); want == "" {
			want = got
		} else if got != want {
			t.Errorf("rows differ:\n%s\n%s", got, want)
		}
	}
	if n := svc.plans.len(); n != 2 {
		t.Errorf("%d cached plans, want 2", n)
	}
}

// TestPlanCacheConcurrentHits posts one body from several goroutines at
// once (run it under -race): every reply carries the same rows, and the
// body is one entry.
func TestPlanCacheConcurrentHits(t *testing.T) {
	svc := New(Options{})
	h := NewHandler(svc)
	const posters, posts = 8, 4
	replies := make([]string, posters*posts)
	var wg sync.WaitGroup
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < posts; i++ {
				code, _, reply := postTo(h, "/v1/batch", cachedBatch, "")
				if code != http.StatusOK {
					t.Errorf("HTTP %d %s", code, reply)
					return
				}
				replies[g*posts+i] = reply
			}
		}()
	}
	wg.Wait()
	want := rowsOf(t, replies[0])
	for _, reply := range replies[1:] {
		if got := rowsOf(t, reply); got != want {
			t.Fatalf("concurrent replies differ:\n%s\n%s", got, want)
		}
	}
	if n := svc.plans.len(); n != 1 {
		t.Errorf("%d cached plans, want 1", n)
	}
}

// TestPlanCacheEvicts fills the cache past each cap in turn: the count,
// the body bytes and the jobs held stay within their caps, the least
// recently used entry goes first, and a lookup counts as a use.
func TestPlanCacheEvicts(t *testing.T) {
	key := func(i, size int) []byte {
		k := []byte(fmt.Sprintf("/v1/batch %d ", i))
		return append(k, bytes.Repeat([]byte{' '}, size)...)
	}
	small := &Plan{Jobs: make([]run.Job, 1)}
	var c planCache
	for i := 0; i < planCacheEntries+10; i++ {
		c.put(key(i, 0), small)
		if i == planCacheEntries-1 {
			c.get(key(0, 0)) // 0 is now the most recently used
		}
	}
	if c.len() != planCacheEntries {
		t.Errorf("%d entries after %d puts, cap %d", c.len(), planCacheEntries+10, planCacheEntries)
	}
	if c.get(key(0, 0)) == nil || c.get(key(1, 0)) != nil {
		t.Error("eviction is not least recently used first")
	}

	c = planCache{}
	for i := 0; i < 6; i++ {
		c.put(key(i, MaxBodyBytes-32), small)
	}
	if c.bytes > planCacheBytes || c.len() != planCacheBytes/MaxBodyBytes {
		t.Errorf("%d entries of %d bytes, caps %d bytes", c.len(), c.bytes, planCacheBytes)
	}

	c = planCache{}
	big := &Plan{Jobs: make([]run.Job, 4097)}
	for i := 0; i < 6; i++ {
		c.put(key(i, 0), big)
	}
	if c.jobs > planCacheJobs || c.len() != planCacheJobs/4097 {
		t.Errorf("%d entries of %d jobs, cap %d jobs", c.len(), c.jobs, planCacheJobs)
	}
	c.put(key(9, 0), &Plan{Jobs: make([]run.Job, planCacheJobs+1)})
	if c.get(key(9, 0)) != nil {
		t.Error("a plan over the job cap on its own was stored")
	}
}

// TestPlanCacheMemoryBound fills a service's cache with the largest plans
// a request can make — 4097-job sweeps with one workload per cell, whose
// every cell holds a deep-cloned device, and 1 MiB bodies — and requires
// the heap the cache keeps to stay within the bound plancache.go states:
// 2×planCacheBytes + planCacheJobs×2 KiB.
func TestPlanCacheMemoryBound(t *testing.T) {
	svc := New(Options{})
	points := func(from int) string {
		var p []string
		for i := 0; i < 64; i++ {
			p = append(p, fmt.Sprint(from+i))
		}
		return strings.Join(p, ",")
	}
	var bodies [][]byte
	for i := 0; i < 6; i++ {
		bodies = append(bodies, []byte(fmt.Sprintf(
			`{"device":"Xeon","axes":["dramlat=%s","maxinflight=%s"],"workloads":["stream:test=COPY,elems=64,reps=1"]}`,
			points(10+i), points(1))))
		bodies = append(bodies, []byte(`{"devices":["MangoPi"],"workloads":["stream:test=COPY,elems=`+
			strings.Repeat("0", MaxBodyBytes-100-i)+`64,reps=1"]}`))
	}
	fill := func() {
		for i, body := range bodies {
			var req JobRequest
			if i%2 == 0 {
				req.Sweep = new(SweepRequest)
				if err := json.Unmarshal(body, req.Sweep); err != nil {
					t.Fatal(err)
				}
			} else {
				req.Batch = new(BatchRequest)
				if err := json.Unmarshal(body, req.Batch); err != nil {
					t.Fatal(err)
				}
			}
			p, err := svc.plan(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			svc.plans.put(append([]byte("/v1/batch "), body...), p)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fill()
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const bound = 2*planCacheBytes + planCacheJobs*(2<<10)
	t.Logf("%d plans held: %d bytes of bodies, %d jobs, %.1f MiB of heap (bound %.1f MiB)",
		svc.plans.len(), svc.plans.bytes, svc.plans.jobs, float64(held)/(1<<20), float64(bound)/(1<<20))
	if svc.plans.len() >= len(bodies) {
		t.Errorf("all %d plans held; the caps evicted none", len(bodies))
	}
	if held > bound {
		t.Errorf("the cache keeps %d bytes of heap, bound %d", held, bound)
	}
	runtime.KeepAlive(svc)
}

// planRecorder is an Executor that records the plans it is handed and
// runs none of their jobs.
type planRecorder struct {
	mu    sync.Mutex
	plans []*Plan
}

func (r *planRecorder) Execute(_ context.Context, p *Plan, _ func(run.Progress)) (Outcome, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.plans = append(r.plans, p)
	return Outcome{Results: make([]run.Result, len(p.Jobs)), Errs: make([]error, len(p.Jobs))}, nil
}

func (r *planRecorder) WriteMetrics(io.Writer) error { return nil }

// TestRecipePlannedOnce pins a worker's half of the plan cache: one
// Service given the same recipe bytes in two assignments decodes and plans
// them once. The cache holds one entry, keyed by the recipe alone, and both
// assignments' jobs come from that one Plan.
func TestRecipePlannedOnce(t *testing.T) {
	rec := &planRecorder{}
	svc := New(Options{Executor: rec})
	recipe := []byte(`{"batch":` + cachedBatch + `}`)
	for i, cell := range []int{1, 0} {
		// A fresh copy per assignment, as each poll reply decodes into.
		if _, err := svc.ExecuteRecipe(context.Background(), bytes.Clone(recipe), []int{cell}, nil); err != nil {
			t.Fatalf("assignment %d: %v", i, err)
		}
	}
	if n := svc.plans.len(); n != 1 {
		t.Fatalf("%d cached plans, want 1", n)
	}
	p := svc.plans.get(recipe)
	if p == nil {
		t.Fatal("the recipe is not cached under its own bytes")
	}
	for i, got := range rec.plans {
		if got.Request.Batch != p.Request.Batch {
			t.Errorf("assignment %d ran a plan of its own, want the cached one", i)
		}
	}
	if len(rec.plans) != 2 || rec.plans[0].Jobs[0] != p.Jobs[1] || rec.plans[1].Jobs[0] != p.Jobs[0] {
		t.Errorf("executed jobs are not the cells' jobs of the cached plan")
	}
}
