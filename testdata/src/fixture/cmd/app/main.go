// Command app is the census fixture's program: it calls lib.Used, calls
// Area through the lib.Shape interface only, and calls Thing.Called through
// the API package's alias.
package main

import (
	"fmt"

	"fixture"
	"fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(s.Area(), lib.Used(), fixture.Thing{}.Called())
}
