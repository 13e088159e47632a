package seams

import "faultinject"

// Discarded seam: the injected error never reaches the caller, so the
// seam guards nothing.
func DiscardedFire() {
	faultinject.Fire(faultinject.PointA) // want `faultinject\.Fire's error is discarded`
}

// Ad-hoc points dodge the deliberate seam registry.
func AdHocPoint() error {
	return faultinject.Fire(faultinject.Point("improvised")) // want `Fire takes a Point constant declared in the faultinject package`
}

func IndirectPoint() error {
	p := faultinject.PointB
	return faultinject.Fire(p) // want `Fire takes a Point constant declared in the faultinject package`
}
