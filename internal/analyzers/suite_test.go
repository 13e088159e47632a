package analyzers_test

import (
	"testing"

	"riscvmem/internal/analyzers"
	"riscvmem/internal/analyzers/analysis"
)

// The tree itself must stay clean under its own lint suite: any new
// finding is either a bug to fix or a deliberate exception to record
// with a //simlint:allow directive, not something to land silently.
func TestSuiteRunsCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := analysis.Load(analysis.Config{}, "riscvmem/...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := analysis.Run(pkgs, analyzers.Suite())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}
