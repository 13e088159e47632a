package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"riscvmem/internal/kernels/blur"
	"riscvmem/internal/kernels/stream"
	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/machine"
	"riscvmem/internal/run"
)

// TestPlanExpandsSpecs pins what one positional argument stands for: the
// variant ladder when the variant key is unset, the device's memory levels
// when a stream spec is unsized, itself otherwise — and that a spec a
// factory rejects yields no jobs at all. It also pins the RAM-fit mark:
// the paper's 16384² matrix (512² at scale 32) does not fit the Mango Pi
// and does fit the VisionFive.
func TestPlanExpandsSpecs(t *testing.T) {
	vf := machine.VisionFive()
	var ladder, ladder512 []string
	for _, v := range transpose.Variants() {
		ladder = append(ladder, "transpose:variant="+v.String())
		ladder512 = append(ladder512, "transpose:n=512,variant="+v.String())
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
		dev     machine.Spec // VisionFive when unset
		arg     string
		want    []string // canonical spec + level suffix, in row order
		wantErr string
		fits    string // every cell's Fits, "true" or "false"; unchecked when empty
	}{
		{arg: "transpose", want: ladder},
		{arg: "stream/TRIAD", want: levels},
		{arg: "stream:test=COPY,elems=4096", want: []string{"stream:elems=4096,test=COPY"}},
		{arg: "gblur/Memory", want: []string{"gblur:variant=Memory"}},
		{arg: "transpose:nn=512", wantErr: "accepted:"},
		{arg: "warp:speed=9", wantErr: "unknown kernel"},
		{dev: machine.MangoPiD1(), arg: "transpose:n=512", want: ladder512, fits: "false"},
		{arg: "transpose:n=512", want: ladder512, fits: "true"},
	} {
		dev := tc.dev
		if dev.Name == "" {
			dev = vf
		}
		spec, err := run.ParseWorkloadSpec(tc.arg)
		if err != nil {
			t.Fatalf("%s: %v", tc.arg, err)
		}
		cells, err := Expand(dev, spec, 32)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || cells != nil {
				t.Errorf("%s: %d cells, error %v; want no cells and an error containing %q", tc.arg, len(cells), err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.arg, err)
			continue
		}
		var got []string
		for i, c := range cells {
			row := c.Spec.String()
			if c.Level != "" {
				row += "@" + c.Level
			}
			got = append(got, row)
			if c.Device.Name != dev.Name || c.Workload == nil {
				t.Errorf("%s: cell %d runs %v on %s", tc.arg, i, c.Workload, c.Device.Name)
			}
			if tc.fits != "" && fmt.Sprint(c.Fits) != tc.fits {
				t.Errorf("%s on %s: cell %d fits = %v, want %s", tc.arg, dev.Name, i, c.Fits, tc.fits)
			}
		}
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("%s expands to\n  %v\nwant\n  %v", tc.arg, got, tc.want)
		}
	}
}

// lastLevel is the capacity of the device's last cache level, as
// stream.Levels sizes against it: a private L2 counts once per core.
func lastLevel(d machine.Spec) int64 {
	switch {
	case d.Mem.L3 != nil:
		return d.Mem.L3.Cache.Size
	case d.Mem.L2 != nil && d.Mem.L2.Shared:
		return d.Mem.L2.Cache.Size
	case d.Mem.L2 != nil:
		return d.Mem.L2.Cache.Size * int64(d.Cores)
	}
	return d.Mem.L1.Size
}

// TestScaledCellsInCache walks the scale-32 manifest without simulating
// and divides each cell's host footprint (its working set) by the
// device's last-level capacity. STREAM's cache-level rows are meant to
// fit; every other cell is meant to stand for a working set beyond every
// cache. The cells that do not are pinned here, so the package doc's
// regime sentence can name them and a change to the sizes shows up.
func TestScaledCellsInCache(t *testing.T) {
	s := NewSuite(Options{Scale: 32})
	var resident []string
	for _, dev := range s.Options().Devices {
		for _, fig := range []int{1, 2, 6} {
			for _, arg := range s.Manifest()[fig] {
				cells, err := Expand(dev, run.MustParseWorkloadSpec(arg), 32)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range cells {
					if c.Level != "" && c.Level != "DRAM" || !c.Fits {
						continue
					}
					bytes := c.Workload.(interface{ HostBytes(machine.Spec) int64 }).HostBytes(dev)
					ratio := float64(bytes) / float64(lastLevel(dev))
					t.Logf("%-12s %-28s %6.2f × last level", dev.Name, c.Workload.Name(), ratio)
					if ratio <= 1 {
						resident = append(resident, dev.Name+" "+strings.TrimPrefix(c.Spec.String(), c.Spec.Kernel+":"))
					}
				}
			}
		}
	}
	var want []string
	in := func(dev, spec string, variants ...string) {
		for _, v := range variants {
			want = append(want, dev+" "+fmt.Sprintf(spec, v))
		}
	}
	transposes, blurs := names(transpose.Variants()), names(blur.Variants())
	const image = "c=3,f=19,h=63,variant=%s,verify=false,w=79"
	in("Xeon", "n=256,variant=%s,verify=false", transposes...)
	in("Xeon", "n=512,variant=%s,verify=false", transposes...)
	in("Xeon", image, blurs...)
	in("RaspberryPi4", "n=256,variant=%s,verify=false", transposes...)
	in("RaspberryPi4", image, blurs...)
	in("VisionFive", image, blurs[:2]...) // two images: the separable variants keep a third
	slices.Sort(resident)
	slices.Sort(want)
	if !slices.Equal(resident, want) {
		t.Errorf("cache-resident cells at scale 32:\n  %s\nwant\n  %s", strings.Join(resident, "\n  "), strings.Join(want, "\n  "))
	}
}
