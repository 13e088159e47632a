// Package seams is the faultseam fixture: production-side seam usage,
// correct and incorrect, in tagged and untagged files.
package seams

import (
	"fmt"

	"faultinject"
)

// Acquire is the sanctioned seam shape: Fire with a declared Point
// constant, error consulted, from an untagged file.
func Acquire() error {
	if err := faultinject.Fire(faultinject.PointA); err != nil {
		return fmt.Errorf("injected: %w", err)
	}
	return nil
}
