//go:build !faultinject

package faultinject

// Fire is the disabled stub: always nil, trivially inlined, so the seams
// cost nothing in ordinary builds.
func Fire(Point) error { return nil }
