// Package faultinject is the fault-injection harness behind the chaos test
// suite: named injection points at the Runner/Service seams where a handler
// can force a failure that is hard to provoke organically — a machine
// construction that errors, an admission path that overflows — so the tests
// can assert the system's invariants (no goroutine leaks, poisoned machines
// never re-pooled, errors never cached, deadlines honored) under every
// fault class, deterministically.
//
// There is one build. Fire is a real function whose disarmed path is a
// single atomic load: until a test installs a handler with Set, the seams
// cost one pointer read and return nil. Set installs a process-wide handler
// table, Fired reads its activation counts, and Reset disarms every seam.
// Each seam sits on a per-request (or colder) path, never on a per-access
// one, so production binaries carry the same code the chaos suites of
// internal/run, internal/service and internal/cluster exercise under plain
// `go test`.
//
// Handlers inject failures at seams; the misbehaving *workloads* of the
// fault taxonomy (panic, stall, slow, transient failure) need no seam —
// they are ordinary Workload implementations, provided by the chaos
// subpackage.
package faultinject

import (
	"sync"
	"sync/atomic"
)

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

// Handler decides one activation of a point: return nil to let the call
// proceed, non-nil to inject that failure.
type Handler func() error

// table is one armed set of handlers and the activation counts taken while
// it was installed.
type table struct {
	handlers map[Point]Handler
	fired    map[Point]int
}

var (
	mu    sync.Mutex            // guards the installed table's maps
	armed atomic.Pointer[table] // nil while every seam is disarmed
)

// Fire consults the point's handler. Disarmed (no Set since the last Reset)
// it is one atomic load returning nil. Armed, it counts the activation —
// whether or not this point has a handler — so tests can assert a seam was
// actually reached.
func Fire(p Point) error {
	t := armed.Load()
	if t == nil {
		return nil
	}
	mu.Lock()
	t.fired[p]++
	h := t.handlers[p]
	mu.Unlock()
	if h == nil {
		return nil
	}
	return h()
}

// Set installs the point's handler, replacing any previous one; a nil
// handler clears it. The first Set after a Reset arms every seam.
func Set(p Point, h Handler) {
	mu.Lock()
	defer mu.Unlock()
	t := armed.Load()
	if t == nil {
		t = &table{handlers: map[Point]Handler{}, fired: map[Point]int{}}
		armed.Store(t)
	}
	if h == nil {
		delete(t.handlers, p)
	} else {
		t.handlers[p] = h
	}
}

// Reset disarms every seam and drops the activation counts; chaos tests
// defer it so faults never leak across tests.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Store(nil)
}

// Fired reports how many times the point has been reached since the first
// Set after the last Reset.
func Fired(p Point) int {
	mu.Lock()
	defer mu.Unlock()
	if t := armed.Load(); t != nil {
		return t.fired[p]
	}
	return 0
}

// FailTimes builds a handler that injects err on the first n activations
// and then lets every later call proceed — the shape of a transient fault.
func FailTimes(n int, err error) Handler {
	var (
		hmu  sync.Mutex
		left = n
	)
	return func() error {
		hmu.Lock()
		defer hmu.Unlock()
		if left > 0 {
			left--
			return err
		}
		return nil
	}
}

// AlwaysFail builds a handler that injects err on every activation.
func AlwaysFail(err error) Handler { return func() error { return err } }
