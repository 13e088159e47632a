package cluster

import (
	"fmt"
	"io"
	"strings"
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
	cgauge(&b, "simd_cluster_workers",
		"Workers currently registered and within their lease.", workers)
	cgauge(&b, "simd_cluster_cells_queued",
		"Cells routed (or pooled unassigned) but not yet delivered to a worker.", queued)
	cgauge(&b, "simd_cluster_cells_inflight",
		"Cells delivered to workers and awaiting rows.", inflight)
	cgauge(&b, "simd_cluster_dispatches_active",
		"Client requests currently being assembled.", active)
	ccounter(&b, "simd_cluster_dispatches_total",
		"Client requests dispatched since start.", dispatches)
	ccounter(&b, "simd_cluster_workers_lost_total",
		"Workers marked lost after a lapsed lease.", lost)
	ccounter(&b, "simd_cluster_workers_drained_total",
		"Workers that announced drain and departed cleanly.", drained)
	ccounter(&b, "simd_cluster_cells_requeued_total",
		"Cells requeued from lost, draining, or refusing workers.", requeued)
	ccounter(&b, "simd_cluster_cells_quarantined_total",
		"Cells completed as quarantine error rows after exhausting the failure budget.", quarantined)
	ccounter(&b, "simd_cluster_cell_failures_total",
		"Contained cell failures reported by workers (panics attributed to cells).", failures)
	ccounter(&b, "simd_cluster_rows_accepted_total",
		"Rows accepted into dispatches (including quarantine error rows).", accepted)
	ccounter(&b, "simd_cluster_rows_revoked_total",
		"Rows rejected because their assignment was revoked.", revoked)
	ccounter(&b, "simd_cluster_dispatches_deadline_expired_total",
		"Dispatches that returned degraded after their request deadline expired.", expired)

	_, err := io.WriteString(w, b.String())
	return err
}

// cgauge / ccounter render one unlabelled series each; the tiny local
// duplicates of the service helpers keep the cluster package from
// exporting service's rendering internals just for ten lines.
func cgauge(b *strings.Builder, name, help string, v int) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

func ccounter(b *strings.Builder, name, help string, v uint64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}
