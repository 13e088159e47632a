// Package fixture is the census fixture's public API, standing where
// riscvmem.go stands in the repository: it aliases a type declared under
// internal/. The alias roots the type, not its methods: a method stays
// only if a program calls it.
package fixture

import "fixture/internal/lib"

// Thing is public API.
type Thing = lib.Thing
