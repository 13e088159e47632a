// simlint is the repo's invariant multichecker: it loads the packages
// matching the given patterns (default ./...) and runs the custom
// go/analysis-style suite from internal/analyzers over them —
//
//	atomicmix    no field accessed both atomically and plainly
//	cachekey     canonical cache-key encoders name every Config field
//	ctxerr       errors.Is instead of ==/!= against sentinels
//	determinism  no wall clock / global rand / map-order leaks in model code
//	faultseam    faultinject seams consult Fire's error and fire declared Points
//
// Usage:
//
//	go run ./cmd/simlint ./...
//	go run ./cmd/simlint -only ctxerr,determinism ./internal/...
//
// Exit status: 0 clean, 1 findings, 2 operational failure. Findings print
// as file:line:col: message [analyzer], one per line. Intentional
// exceptions are suppressed in source with
// `//simlint:allow <analyzer> -- reason` on or above the flagged line.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"riscvmem/internal/analyzers"
	"riscvmem/internal/analyzers/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		only = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list = flag.Bool("list", false, "list the analyzers and exit")
	)
	flag.Parse()

	suite := analyzers.Suite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range suite {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		if len(keep) > 0 {
			var unknown []string
			for name := range keep {
				unknown = append(unknown, name)
			}
			fmt.Fprintf(os.Stderr, "simlint: unknown analyzer(s) %s (see -list)\n", strings.Join(unknown, ", "))
			return 2
		}
		suite = filtered
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(analysis.Config{}, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
