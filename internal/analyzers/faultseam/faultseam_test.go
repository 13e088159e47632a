package faultseam_test

import (
	"testing"

	"riscvmem/internal/analyzers/analysis/analysistest"
	"riscvmem/internal/analyzers/faultseam"
)

func TestFaultSeam(t *testing.T) {
	analysistest.Run(t, "testdata", faultseam.Analyzer, "seams")
}
