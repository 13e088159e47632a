// Command app is the census fixture's program: it calls lib.Used and calls
// Area through the lib.Shape interface only.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(s.Area(), lib.Used())
}
