// Package fixture is the census fixture's public API, standing where
// riscvmem.go stands in the repository: it aliases a type declared under
// internal/, which makes that type's exported methods roots.
package fixture

import "fixture/internal/lib"

// Thing is public API.
type Thing = lib.Thing
