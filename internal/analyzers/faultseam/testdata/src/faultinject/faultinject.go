// Package faultinject models the repo's fault-injection API for the
// faultseam fixtures: same name, same exported surface. In the real
// package everything below Fire/Point is build-tag gated; here it
// is all present so the fixture load compiles with and without the tag —
// the analyzer's judgment is about the *referencing* file's build
// constraint, not about how this package was built.
package faultinject

// Point names one injection seam.
type Point string

// PointA and PointB are declared seams.
const (
	PointA Point = "a"
	PointB Point = "b"
)

// Fire consults the point's handler.
func Fire(Point) error { return nil }

// Handler decides one activation of a point. Tag-only in the real API.
type Handler func() error

// Set installs a handler. Tag-only in the real API.
func Set(Point, Handler) {}

// Fired counts activations. Tag-only in the real API.
func Fired(Point) int { return 0 }

// FailTimes builds a transient-fault handler. Tag-only in the real API.
func FailTimes(int, error) Handler { return nil }
