// Package profiling wires the standard pprof profiles into the command-line
// tools (-cpuprofile/-memprofile on cmd/kernel and cmd/sweep), so the next
// performance investigation starts from a profile of a real workload instead
// of guesswork. scripts/profile.sh packages the common invocations.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpu (when non-empty) and arranges a heap
// snapshot into mem (when non-empty) at stop time. The returned stop must
// run before process exit; it is never nil. Either path may be empty.
func Start(cpu, mem string) (stop func(), err error) {
	var cpuF *os.File
	if cpu != "" {
		if cpuF, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // get up-to-date live-object statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}
