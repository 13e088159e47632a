package main

import (
	"strconv"
	"strings"
	"testing"

	"riscvmem/internal/kernels/stream"
	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/machine"
)

// TestPlanExpandsSpecs pins what one positional argument stands for: the
// variant ladder when the variant key is unset, the device's memory levels
// when a stream spec is unsized, itself otherwise — and that a spec a
// factory rejects yields no jobs at all.
func TestPlanExpandsSpecs(t *testing.T) {
	vf := machine.VisionFive()
	var ladder []string
	for _, v := range transpose.Variants() {
		ladder = append(ladder, "transpose:variant="+v.String())
	}
	var levels []string
	for _, lv := range stream.Levels(vf, 32) {
		levels = append(levels, "stream:cores="+strconv.Itoa(lv.Cores)+",elems="+strconv.Itoa(lv.Elems)+
			",scaleby="+strconv.Itoa(lv.ScaleBy)+",test=TRIAD@"+lv.Name)
	}
	if len(levels) != 3 {
		t.Fatalf("VisionFive has %d STREAM levels, want L1/L2/DRAM", len(levels))
	}
	for _, tc := range []struct {
		arg     string
		want    []string // canonical spec + level suffix, in row order
		wantErr string
	}{
		{arg: "transpose", want: ladder},
		{arg: "stream/TRIAD", want: levels},
		{arg: "stream:test=COPY,elems=4096", want: []string{"stream:elems=4096,test=COPY"}},
		{arg: "gblur/Memory", want: []string{"gblur:variant=Memory"}},
		{arg: "transpose:nn=512", wantErr: "accepted:"},
		{arg: "warp:speed=9", wantErr: "unknown kernel"},
	} {
		jobs, cells, err := plan([]machine.Spec{vf}, []string{tc.arg}, 32)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || jobs != nil {
				t.Errorf("%s: %d jobs, error %v; want no jobs and an error containing %q", tc.arg, len(jobs), err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.arg, err)
			continue
		}
		var got []string
		for i, c := range cells {
			got = append(got, c.spec.String()+c.suffix)
			if jobs[i].Device.Name != vf.Name {
				t.Errorf("%s: job %d runs on %s", tc.arg, i, jobs[i].Device.Name)
			}
		}
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("%s expands to\n  %v\nwant\n  %v", tc.arg, got, tc.want)
		}
	}
}
