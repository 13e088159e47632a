//go:build faultinject

package faultinject

import "sync"

// Handler decides one activation of a point: return nil to let the call
// proceed, non-nil to inject that failure.
type Handler func() error

var (
	mu       sync.Mutex
	handlers = map[Point]Handler{}
	fired    = map[Point]int{}
)

// Fire consults the point's handler. Activations are counted whether or
// not a handler is installed, so tests can assert a seam was actually
// reached.
func Fire(p Point) error {
	mu.Lock()
	fired[p]++
	h := handlers[p]
	mu.Unlock()
	if h == nil {
		return nil
	}
	return h()
}

// Set installs the point's handler, replacing any previous one.
func Set(p Point, h Handler) {
	mu.Lock()
	defer mu.Unlock()
	if h == nil {
		delete(handlers, p)
	} else {
		handlers[p] = h
	}
}

// Clear removes the point's handler.
func Clear(p Point) { Set(p, nil) }

// Reset removes every handler and zeroes the activation counters; chaos
// tests defer it so faults never leak across tests.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	handlers = map[Point]Handler{}
	fired = map[Point]int{}
}

// Fired reports how many times the point has been reached since the last
// Reset.
func Fired(p Point) int {
	mu.Lock()
	defer mu.Unlock()
	return fired[p]
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
