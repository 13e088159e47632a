package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// MaxBodyBytes bounds request bodies; a batch request is a few KB even at
// the job limit, so 1 MiB is generous.
const MaxBodyBytes = 1 << 20

// NewHandler fronts a Service with HTTP — the simd wire protocol:
//
//	GET    /healthz        liveness: {"status":"ok"}, or 503 {"status":"draining"}
//	GET    /metrics        Prometheus text exposition (see WriteMetrics)
//	GET    /v1/devices     device presets
//	GET    /v1/workloads   kernels, params, registered workloads, sweep axes
//	POST   /v1/batch       BatchRequest → Response (synchronous)
//	POST   /v1/sweep       SweepRequest → Response (synchronous)
//	POST   /v1/jobs        JobRequest → 202 JobStatus (async; poll the ID)
//	GET    /v1/jobs        stored jobs, newest first (rows elided)
//	GET    /v1/jobs/{id}   JobStatus: state plus rows accumulated so far;
//	                       ?after=N elides the first N rows (incremental
//	                       polling — pass the previous snapshot's next_after)
//	DELETE /v1/jobs/{id}   request cancellation; returns the snapshot
//
// Request and response bodies are JSON; a reply is one compact encoding
// sent with its Content-Length (WriteJSON), and the contract is the JSON
// value, not its whitespace. Errors are {"error": "..."}:
// 400 for malformed or unresolvable requests (ValidationError), 429 with a
// Retry-After header when the admission queue or the client's rate limit
// is exhausted, 503 while draining, 504 when the request's own deadline
// expired, 500 for server-side execution failures and anything
// unclassified. Per-client rate limiting keys on the X-Client-ID header,
// falling back to the remote host.
//
// The handler is stateless; all shared state (machine pool, memo cache,
// admission slots, job store, the plan cache of request bodies) lives in
// the Service, so multiple handlers (or transports) can front one Service.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WriteMetrics(w); err != nil {
			s.logf("service: writing /metrics response: %v", err)
		}
	})
	mux.HandleFunc("GET /v1/devices", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.Devices())
	})
	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.Workloads())
	})
	mux.HandleFunc("POST /v1/batch", planned(s, "/v1/batch",
		func(req *BatchRequest) JobRequest { return JobRequest{Batch: req} }, s.respond))
	mux.HandleFunc("POST /v1/sweep", planned(s, "/v1/sweep",
		func(req *SweepRequest) JobRequest { return JobRequest{Sweep: req} }, s.respond))
	mux.HandleFunc("POST /v1/jobs", planned(s, "/v1/jobs",
		func(req *JobRequest) JobRequest { return *req },
		func(w http.ResponseWriter, _ context.Context, p *Plan) {
			js, err := s.submit(p)
			if err != nil {
				s.writeError(w, err)
				return
			}
			w.Header().Set("Location", "/v1/jobs/"+js.ID)
			s.writeJSON(w, http.StatusAccepted, js)
		}))
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		after := 0
		if raw := r.URL.Query().Get("after"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				s.writeJSON(w, http.StatusBadRequest,
					map[string]string{"error": fmt.Sprintf("bad after cursor %q: want a non-negative row count", raw)})
				return
			}
			after = n
		}
		js, ok := s.JobAfter(r.PathValue("id"), after)
		if !ok {
			s.writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
			return
		}
		s.writeJSON(w, http.StatusOK, js)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		js, ok := s.CancelJob(r.PathValue("id"))
		if !ok {
			s.writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
			return
		}
		s.writeJSON(w, http.StatusOK, js)
	})
	return mux
}

// planned is the handler of a request that plans (batch, sweep, async
// job). It reads the body once and plans it through the service's plan
// cache, keyed by the endpoint and the exact body bytes (cachedPlan), under
// the service's job limit. serve then takes the plan on: timeout,
// admission, Executor, reply.
func planned[Req any](s *Service, endpoint string, request func(*Req) JobRequest,
	serve func(w http.ResponseWriter, ctx context.Context, p *Plan)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := clientCtx(r)
		key, err := readBody(w, r, endpoint+" ")
		var p *Plan
		if err == nil {
			p, err = cachedPlan(ctx, s, key, key[len(endpoint)+1:], request, s.opt.MaxJobs)
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
		serve(w, ctx, p)
	}
}

// cachedPlan is the front of a request that arrives as bytes — an HTTP
// body, or a cluster worker's recipe — cached under key. A hit passes only
// the admission gate (its error, if any, beside the plan); a miss is
// decoded strictly into a Req, gated, planned under maxJobs, and stored
// once it planned.
func cachedPlan[Req any](ctx context.Context, s *Service, key, body []byte, request func(*Req) JobRequest, maxJobs int) (*Plan, error) {
	if p := s.plans.get(key); p != nil {
		return p, s.checkAdmittable(ctx)
	}
	var req Req
	if err := decodeJSON(body, &req); err != nil {
		return nil, err
	}
	if err := s.checkAdmittable(ctx); err != nil {
		return nil, err
	}
	p, err := PlanRequest(request(&req), maxJobs)
	if err == nil {
		s.plans.put(key, p)
	}
	return p, err
}

// respond runs a synchronous plan and writes its Response with the rows'
// stored JSON spliced in (writeResponse).
func (s *Service) respond(w http.ResponseWriter, ctx context.Context, p *Plan) {
	resp, rowJSON, err := s.run(ctx, p)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeResponse(w, resp, rowJSON, s.opt.Logf)
}

// clientCtx tags the request context with the caller's identity for rate
// limiting: the X-Client-ID header when present, else the remote host.
func clientCtx(r *http.Request) context.Context {
	id := r.Header.Get("X-Client-ID")
	if id == "" {
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			id = host
		} else {
			id = r.RemoteAddr
		}
	}
	return WithClientID(r.Context(), id)
}

// ReadJSON decodes a request body strictly — at most MaxBodyBytes, no
// unknown fields (so typos like "workload" for "workloads" fail loudly), no
// trailing data — and answers 400 {"error": ...} itself when it returns
// false. Every JSON endpoint reads through its two halves, readBody and
// decodeJSON, the cluster coordinator's worker-facing ones included, and
// so does a worker's recipe.
func ReadJSON(w http.ResponseWriter, r *http.Request, dst any, logf func(format string, args ...any)) bool {
	body, err := readBody(w, r, "")
	if err == nil {
		err = decodeJSON(body, dst)
	}
	if err != nil {
		WriteError(w, err, logf)
	}
	return err == nil
}

// readBody reads a request body of at most MaxBodyBytes, returned after
// prefix in one buffer; a failure is a ValidationError (400).
func readBody(w http.ResponseWriter, r *http.Request, prefix string) ([]byte, error) {
	n := 512
	if r.ContentLength > 0 && r.ContentLength <= MaxBodyBytes {
		n = int(r.ContentLength) + 1 // the read that sees EOF needs room
	}
	buf := append(make([]byte, 0, len(prefix)+n), prefix...)
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		m, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, invalidf("bad request body: %v", err)
		}
	}
}

// decodeJSON decodes body into dst strictly — no unknown fields, no
// trailing data — and fails with a ValidationError (400). It is the one
// request decoder.
func decodeJSON(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return invalidf("bad request body: %v", err)
	}
	if dec.More() {
		return invalidf("bad request body: trailing data after JSON value")
	}
	return nil
}

// writeError maps service errors onto the status taxonomy.
func (s *Service) writeError(w http.ResponseWriter, err error) {
	WriteError(w, err, s.opt.Logf)
}

// writeJSON writes a JSON response through the shared encoder.
func (s *Service) writeJSON(w http.ResponseWriter, status int, v any) {
	WriteJSON(w, status, v, s.opt.Logf)
}

// WriteError maps service errors onto the status taxonomy. Only explicitly
// classified client mistakes earn a 4xx; anything unrecognized is a 500 —
// an unexpected server-side failure must not be blamed on the request.
// Exported so other transports over the same error taxonomy (the cluster
// coordinator's handler) report identically to the standalone daemon.
func WriteError(w http.ResponseWriter, err error, logf func(format string, args ...any)) {
	status := http.StatusInternalServerError
	var (
		valErr  *ValidationError
		overErr *OverloadError
	)
	switch {
	case errors.As(err, &valErr):
		status = http.StatusBadRequest
	case errors.As(err, &overErr):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After",
			strconv.Itoa(int((overErr.RetryAfter+time.Second-1)/time.Second)))
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrRateLimited):
		// Unwrapped sentinels (in-process callers constructing their own).
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	}
	WriteJSON(w, status, map[string]string{"error": err.Error()}, logf)
}

// replyBufs recycles WriteJSON's encode buffers across requests.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledReply caps the buffers returned to replyBufs, so one outsized
// reply (a large sweep or job listing) does not stay pinned in the pool.
const maxPooledReply = 1 << 20

// WriteJSON writes a JSON response: v is marshalled once, compact, into a
// pooled buffer, and only then are the status line, Content-Length and body
// written. A value encoding/json refuses (a NaN in a result, say) is
// therefore a clean 500 {"error": ...} rather than a 200 with a torn body.
// Encode and write failures go to logf (nil discards): a write failure is
// the only trace of a reply lost to a dead connection.
func WriteJSON(w http.ResponseWriter, status int, v any, logf func(format string, args ...any)) {
	buf := replyBufs.Get().(*bytes.Buffer)
	defer putReplyBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		if logf != nil {
			logf("service: encoding %d response: %v", status, err)
		}
		status = http.StatusInternalServerError
		buf.Reset()
		// A map of strings always encodes.
		_ = json.NewEncoder(buf).Encode(map[string]string{"error": fmt.Sprintf("encoding response: %v", err)})
	}
	writeBody(w, status, buf.Bytes(), logf)
}

// putReplyBuf returns an encode buffer to replyBufs.
func putReplyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledReply {
		buf.Reset()
		replyBufs.Put(buf)
	}
}

// writeResponse writes a 200 Response reply with exactly the bytes
// WriteJSON would write for resp — json.Marshal(resp) and a newline —
// without encoding again what the memo store already holds encoded. Row i
// is spliced from rowJSON[i] when that is set and the row carries nothing
// beyond its run.Result: those bytes are json.Marshal of that Result, made
// once when it was first stored, and a bare ResultRow encodes as its
// embedded Result. Every other row and the envelope's fields are encoded
// here by encoding/json. A reply that does not encode (a NaN) falls back
// to WriteJSON, which turns it into its clean 500.
func writeResponse(w http.ResponseWriter, resp *Response, rowJSON [][]byte, logf func(format string, args ...any)) {
	buf := replyBufs.Get().(*bytes.Buffer)
	defer putReplyBuf(buf)
	if err := spliceResponse(buf, resp, rowJSON); err != nil {
		WriteJSON(w, http.StatusOK, resp, logf)
		return
	}
	writeBody(w, http.StatusOK, buf.Bytes(), logf)
}

// spliceResponse appends resp's reply to buf: Response's fields in
// declaration order, with its omitempty rule for Errors.
func spliceResponse(buf *bytes.Buffer, resp *Response, rowJSON [][]byte) error {
	enc := json.NewEncoder(buf)
	encode := func(v any) error {
		if err := enc.Encode(v); err != nil {
			return err
		}
		buf.Truncate(buf.Len() - 1) // the newline Encode ends every value with
		return nil
	}
	buf.WriteString(`{"results":`)
	if resp.Results == nil {
		buf.WriteString("null")
	} else {
		buf.WriteByte('[')
		for i := range resp.Results {
			if i > 0 {
				buf.WriteByte(',')
			}
			row := &resp.Results[i]
			if i < len(rowJSON) && rowJSON[i] != nil && row.bare() {
				buf.Write(rowJSON[i])
			} else if err := encode(row); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	}
	buf.WriteString(`,"cache":`)
	if err := encode(&resp.Cache); err != nil {
		return err
	}
	if len(resp.Errors) > 0 {
		buf.WriteString(`,"errors":`)
		if err := encode(resp.Errors); err != nil {
			return err
		}
	}
	buf.WriteString("}\n")
	return nil
}

// writeBody sends one encoded reply with its Content-Length.
func writeBody(w http.ResponseWriter, status int, body []byte, logf func(format string, args ...any)) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Content-Type-Options", "nosniff")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil && logf != nil {
		logf("service: writing %d response: %v", status, err)
	}
}
