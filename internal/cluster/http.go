package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"riscvmem/internal/service"
)

// maxBodyBytes bounds request bodies, matching the service handler's cap.
const maxBodyBytes = 1 << 20

// NewCoordinatorHandler fronts a Coordinator with HTTP. The client-facing
// half IS the standalone daemon's handler — service.NewHandler over the
// coordinator's embedded service, so the whole endpoint table (batch,
// sweep, async jobs with ?after=N, listings, /metrics), the error taxonomy
// (400 validation, 429 + Retry-After, 503 draining, 504 deadline, 500
// otherwise) and admission behave identically, and a client cannot tell a
// coordinator from a simd serving the same requests. Two things differ:
//
//	GET /healthz   {"status":"ok","workers":N}; 503 {"status":"draining",...}
//	               once the embedded service drains
//	GET /metrics   the coordinator's scheduling series (WriteMetrics) in
//	               place of a local runner's cache/pool/kernel series,
//	               followed by the service's admission, job and latency series
//
// A batch whose request deadline expires is not an error: it degrades to a
// 200 whose unfinished rows carry per-cell deadline errors
// (service.DeadlineRowError); a sweep in the same state fails wholesale
// with a 500 (a torn grid has no meaningful deltas).
//
// The worker-facing half is the protocol package over POST + JSON:
//
//	POST /cluster/v1/register    protocol.RegisterRequest → RegisterResponse
//	POST /cluster/v1/heartbeat   protocol.HeartbeatRequest → HeartbeatResponse
//	POST /cluster/v1/poll        protocol.PollRequest → PollResponse (long-poll)
//	POST /cluster/v1/rows        protocol.RowReturn → RowAck
//	POST /cluster/v1/drain       protocol.DrainRequest → DrainResponse
func NewCoordinatorHandler(c *Coordinator, logf func(format string, args ...any)) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(c.svc))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		status, state := http.StatusOK, "ok"
		if c.svc.Draining() {
			status, state = http.StatusServiceUnavailable, "draining"
		}
		service.WriteJSON(w, status, map[string]any{"status": state, "workers": c.Workers()}, logf)
	})
	mux.HandleFunc("POST /cluster/v1/register", bridge(logf, c.Register))
	mux.HandleFunc("POST /cluster/v1/heartbeat", bridge(logf, c.Heartbeat))
	mux.HandleFunc("POST /cluster/v1/poll", bridge(logf, c.Poll))
	mux.HandleFunc("POST /cluster/v1/rows", bridge(logf, c.ReturnRows))
	mux.HandleFunc("POST /cluster/v1/drain", bridge(logf, c.DrainWorker))
	return mux
}

// bridge adapts one (ctx, request) → (response, error) method to HTTP:
// strict JSON in, taxonomy-mapped JSON out. The request context rides
// along, so a long poll ends when the polling worker hangs up.
func bridge[Req, Resp any](logf func(string, ...any), fn func(ctx context.Context, req Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			service.WriteJSON(w, http.StatusBadRequest,
				map[string]string{"error": fmt.Sprintf("bad request body: %v", err)}, logf)
			return
		}
		if dec.More() {
			service.WriteJSON(w, http.StatusBadRequest,
				map[string]string{"error": "bad request body: trailing data after JSON value"}, logf)
			return
		}
		resp, err := fn(r.Context(), req)
		if err != nil {
			service.WriteError(w, err, logf)
			return
		}
		service.WriteJSON(w, http.StatusOK, resp, logf)
	}
}
