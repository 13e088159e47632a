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
// factory rejects yields no jobs at all.
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
	}{
		{arg: "transpose", want: ladder},
		{arg: "stream/TRIAD", want: levels},
		{arg: "stream:test=COPY,elems=4096", want: []string{"stream:elems=4096,test=COPY"}},
		{arg: "gblur/Memory", want: []string{"gblur:variant=Memory"}},
		{arg: "transpose:nn=512", wantErr: "accepted:"},
		{arg: "warp:speed=9", wantErr: "unknown kernel"},
		{dev: machine.MangoPiD1(), arg: "transpose:n=512", want: ladder512},
		{arg: "transpose:n=512", want: ladder512},
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

// TestFig2SkipsOnlyWhatThePaperSkips plans Fig. 2 without simulating and
// pins its RAM-fit skip: at every scale only the Mango Pi's paper-16384²
// cells are skipped (at scale 32 its 512² cells), and the VisionFive's
// fit. Above scale 128 both simulated matrices are 64², so the skip must
// follow the paper's size, not the cell's.
func TestFig2SkipsOnlyWhatThePaperSkips(t *testing.T) {
	for _, scale := range []int{32, 128, 256, 512} {
		s := NewSuite(Options{Scale: scale})
		groups, err := s.plan(2, s.Options().Devices, "")
		if err != nil {
			t.Fatal(err)
		}
		var skipped []string
		for _, g := range groups {
			dev := g.cells[0].Device.Name
			if !g.fits {
				skipped = append(skipped, fmt.Sprintf("%s %d", dev, paperMatrices[g.spec]))
			}
			if scale == 32 && g.spec == 1 && (dev == "MangoPi" || dev == "VisionFive") &&
				(g.fits != (dev == "VisionFive") || g.cells[0].Spec.Params["n"] != "512") {
				t.Errorf("scale 32: %s transpose:n=%s fits = %v", dev, g.cells[0].Spec.Params["n"], g.fits)
			}
		}
		if want := []string{"MangoPi 16384"}; !slices.Equal(skipped, want) {
			t.Errorf("scale %d: Fig. 2 skips %v, want %v", scale, skipped, want)
		}
	}
}

// TestScaledCellsInCache plans the manifest at scales 32, 8 (paperfigs'
// default) and 1 without simulating, and divides each cell's host
// footprint (its working set) by the device's last-level capacity.
// STREAM's cache-level rows are meant to fit; every other cell is meant to
// stand for a working set beyond every cache. The cells that do not are
// pinned here, so the package doc's regime sentence can name them and a
// change to the sizes shows up.
func TestScaledCellsInCache(t *testing.T) {
	transposes, blurs := names(transpose.Variants()), names(blur.Variants())
	want := map[int][]string{}
	in := func(scale int, dev, spec string, variants ...string) {
		for _, v := range variants {
			want[scale] = append(want[scale], dev+" "+fmt.Sprintf(spec, v))
		}
	}
	const image = "c=3,f=19,h=63,variant=%s,verify=false,w=79"
	in(32, "Xeon", "n=256,variant=%s,verify=false", transposes...)
	in(32, "Xeon", "n=512,variant=%s,verify=false", transposes...)
	in(32, "Xeon", image, blurs...)
	in(32, "RaspberryPi4", "n=256,variant=%s,verify=false", transposes...)
	in(32, "RaspberryPi4", image, blurs...)
	in(32, "VisionFive", image, blurs[:2]...) // two images: the separable variants keep a third
	in(8, "Xeon", "n=1024,variant=%s,verify=false", transposes...)
	in(8, "Xeon", "c=3,f=19,h=253,variant=%s,verify=false,w=318", blurs...)
	for _, scale := range []int{32, 8, 1} {
		s := NewSuite(Options{Scale: scale})
		var resident []string
		for _, fig := range []int{1, 2, 6} {
			groups, err := s.plan(fig, s.Options().Devices, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range groups {
				for _, c := range g.cells {
					if c.Level != "" && c.Level != "DRAM" || !g.fits {
						continue
					}
					bytes := c.Workload.(interface{ HostBytes(machine.Spec) int64 }).HostBytes(c.Device)
					ratio := float64(bytes) / float64(lastLevel(c.Device))
					t.Logf("scale %-2d %-12s %-28s %6.2f × last level", scale, c.Device.Name, c.Workload.Name(), ratio)
					if ratio <= 1 {
						resident = append(resident, c.Device.Name+" "+strings.TrimPrefix(c.Spec.String(), c.Spec.Kernel+":"))
					}
				}
			}
		}
		slices.Sort(resident)
		slices.Sort(want[scale])
		if !slices.Equal(resident, want[scale]) {
			t.Errorf("cache-resident cells at scale %d:\n  %s\nwant\n  %s", scale,
				strings.Join(resident, "\n  "), strings.Join(want[scale], "\n  "))
		}
	}
}
