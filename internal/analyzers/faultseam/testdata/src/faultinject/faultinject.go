// Package faultinject models the repo's fault-injection API for the
// faultseam fixtures: same name, and the Fire and Point the analyzer checks.
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
