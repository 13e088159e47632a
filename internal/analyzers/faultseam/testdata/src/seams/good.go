// Package seams is the faultseam fixture: production-side seam usage,
// correct and incorrect.
package seams

import (
	"fmt"

	"faultinject"
)

// Acquire is the sanctioned seam shape: Fire with a declared Point
// constant, error consulted.
func Acquire() error {
	if err := faultinject.Fire(faultinject.PointA); err != nil {
		return fmt.Errorf("injected: %w", err)
	}
	return nil
}
