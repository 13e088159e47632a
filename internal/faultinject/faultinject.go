// Package faultinject is the fault-injection harness behind the chaos test
// suite: named injection points at the Runner/Service seams where a handler
// can force a failure that is hard to provoke organically — a machine
// construction that errors, an admission path that overflows — so the tests
// can assert the system's invariants (no goroutine leaks, poisoned machines
// never re-pooled, errors never cached, deadlines honored) under every
// fault class, deterministically.
//
// The package has two builds:
//
//   - Default (no build tag): Fire is a no-op stub returning nil. The calls
//     at the seams compile to nothing — the hooks are free in production
//     binaries; the happy path pays zero cost for being injectable.
//   - `-tags faultinject`: Fire consults a process-wide handler registry
//     (Set/Clear/Reset) and counts activations (Fired). The chaos suites in
//     internal/run and internal/service build only under this tag and run
//     in CI with -race.
//
// Handlers inject failures at seams; the misbehaving *workloads* of the
// fault taxonomy (panic, stall, slow, transient failure) need no seam —
// they are ordinary Workload implementations, provided by the chaos
// subpackage.
package faultinject

// Point names one injection seam. The set is small and deliberate: a seam
// earns its place by guarding an invariant the chaos suite asserts.
type Point string

const (
	// RunnerAcquire fires in run.Runner before a machine is acquired for a
	// job; a handler error is reported as that job's acquire failure.
	// Guards: acquire failures are per-job errors (the batch survives) and
	// are never cached.
	RunnerAcquire Point = "runner.acquire"
	// ServiceAdmit fires in service.Service at request admission, before
	// the slot/queue logic; a handler error fails admission with that
	// error. Guards: transports map injected admission failures like real
	// ones (429/503), and a failed admission leaks nothing.
	ServiceAdmit Point = "service.admit"
	// MemoPersist fires in memostore.Disk at the entry write path, before
	// anything touches the filesystem; a handler error makes that persist
	// fail. Guards: a failed persist is counted (DiskWriteErrors) and
	// logged but never fails the request that produced the result, and the
	// result is still served from the memory tier afterwards.
	MemoPersist Point = "memostore.persist"
	// ClusterDispatch fires in cluster.Coordinator when a worker's poll is
	// about to be answered with an assignment; a handler error makes the
	// poll return empty and the cells stay queued for a later poll.
	// Guards: a delayed dispatch never loses or duplicates cells — the
	// sweep still completes, every row exactly once.
	ClusterDispatch Point = "cluster.dispatch"
	// ClusterHeartbeat fires in cluster.Coordinator when a worker
	// heartbeat arrives, before the lease is refreshed; a handler error
	// drops the beat (a control-channel blackhole). Guards: a worker whose
	// heartbeats vanish is marked lost within its lease, its unfinished
	// cells are requeued onto survivors exactly once, and its late row
	// returns are revoked rather than double-counted.
	ClusterHeartbeat Point = "cluster.heartbeat"
	// ClusterRequeue fires in cluster.Coordinator as cells from a lost or
	// draining worker are routed onto the surviving workers; a handler
	// error diverts the cells to the unassigned pool instead of a direct
	// queue placement. Guards: requeue is never lossy — pooled cells are
	// still delivered by the next poll.
	ClusterRequeue Point = "cluster.requeue"
	// ClusterSend fires in the cluster tests' flaky transport before a
	// protocol request is delivered to the coordinator; a handler error
	// drops the request on the floor — it never reaches the coordinator,
	// the caller sees a transport failure. Guards: a lossy request channel delays work but
	// never loses or duplicates rows (the worker's retry discipline plus
	// the coordinator's per-index dedup), and a total poll blackhole still
	// yields a deadline-bounded degraded response.
	ClusterSend Point = "cluster.send"
	// ClusterRecv fires in the cluster tests' flaky transport after the
	// coordinator produced a response; a handler error drops the response
	// on the way back — the coordinator's side effects happened, the caller
	// sees a transport failure. Guards: a lost ack makes the worker retransmit an
	// already-delivered RowReturn, and the coordinator must keep row
	// delivery exactly-once under that duplication.
	ClusterRecv Point = "cluster.recv"
)
