package cluster

import (
	"io"
	"strings"

	"riscvmem/internal/obs"
)

// WriteMetrics renders the coordinator's control-plane metrics in
// Prometheus text exposition format (service.Executor): on the
// coordinator's /metrics page they stand where a standalone daemon shows
// its runner's cache, pool and per-kernel series — nothing executes here,
// so there is nothing of that kind to report. One short lock hold
// snapshots everything; rendering happens outside.
func (c *Coordinator) WriteMetrics(w io.Writer) error {
	c.mu.Lock()
	workers := len(c.workers)
	queued := len(c.unassigned)
	inflight := 0
	for _, ws := range c.workers {
		queued += len(ws.queue)
		for _, asn := range ws.delivered {
			inflight += len(asn.cells)
		}
	}
	active := len(c.dispatches)
	lost, drained := c.workersLost, c.workersDrained
	requeued, accepted, revoked := c.cellsRequeued, c.rowsAccepted, c.rowsRevoked
	quarantined, failures := c.cellsQuarantined, c.cellFailures
	dispatches, expired := c.dispatchCount, c.dispatchesExpired
	c.mu.Unlock()

	var b strings.Builder
	obs.Gauge(&b, "simd_cluster_workers",
		"Workers currently registered and within their lease.", float64(workers))
	obs.Gauge(&b, "simd_cluster_cells_queued",
		"Cells routed (or pooled unassigned) but not yet delivered to a worker.", float64(queued))
	obs.Gauge(&b, "simd_cluster_cells_inflight",
		"Cells delivered to workers and awaiting rows.", float64(inflight))
	obs.Gauge(&b, "simd_cluster_dispatches_active",
		"Client requests currently being assembled.", float64(active))
	obs.Counter(&b, "simd_cluster_dispatches_total",
		"Client requests dispatched since start.", dispatches)
	obs.Counter(&b, "simd_cluster_workers_lost_total",
		"Workers marked lost after a lapsed lease.", lost)
	obs.Counter(&b, "simd_cluster_workers_drained_total",
		"Workers that announced drain and departed cleanly.", drained)
	obs.Counter(&b, "simd_cluster_cells_requeued_total",
		"Cells requeued from lost, draining, or refusing workers.", requeued)
	obs.Counter(&b, "simd_cluster_cells_quarantined_total",
		"Cells completed as quarantine error rows after exhausting the failure budget.", quarantined)
	obs.Counter(&b, "simd_cluster_cell_failures_total",
		"Contained cell failures reported by workers (panics attributed to cells).", failures)
	obs.Counter(&b, "simd_cluster_rows_accepted_total",
		"Rows accepted into dispatches (including quarantine error rows).", accepted)
	obs.Counter(&b, "simd_cluster_rows_revoked_total",
		"Rows rejected because their assignment was revoked.", revoked)
	obs.Counter(&b, "simd_cluster_dispatches_deadline_expired_total",
		"Dispatches that returned degraded after their request deadline expired.", expired)

	_, err := io.WriteString(w, b.String())
	return err
}
