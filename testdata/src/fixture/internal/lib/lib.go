// Package lib declares one of each kind of declaration the census must
// judge: four kinds that are dead and two that only look dead.
package lib

// Used is called by the program.
func Used() int { return 1 }

// DeadExported is dead: nothing names it.
func DeadExported() int { return 2 }

// TestOnly is dead: only lib_test.go calls it.
func TestOnly() int { return 3 }

// Ping and Pong are dead: each names only the other, so counting
// references would keep both.
type Ping struct{ next *Pong }

// Pong is Ping's partner.
type Pong struct{ prev *Ping }

// Shape is the interface the program calls Area through.
type Shape interface{ Area() int }

// Square reaches the program as a Shape.
type Square struct{ Side int }

// Area is alive only because Square satisfies Shape: no call names it.
func (s Square) Area() int { return s.Side * s.Side }

// Thing is aliased by the fixture's API package.
type Thing struct{}

// Public is dead: its type is aliased by the API package, but no program
// calls it.
func (Thing) Public() int { return 4 }

// Called is alive: the program calls it through the API package's alias.
func (Thing) Called() int { return 5 }
