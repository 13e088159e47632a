package protocol

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"riscvmem/internal/run"
	"riscvmem/internal/service"
)

// TestAssignmentGolden holds one batch and one sweep Assignment to the
// bytes in testdata, as the coordinator encodes them onto the wire: a
// change to the recipe or cell encoding has to edit those files, and so is
// a deliberate act (coordinator and workers upgrade together). Each golden
// also decodes back to the value it was encoded from.
func TestAssignmentGolden(t *testing.T) {
	specs := []run.WorkloadSpec{
		run.MustParseWorkloadSpec("stream:test=TRIAD,elems=4096,reps=1"),
		run.MustParseWorkloadSpec("transpose/Blocking"),
	}
	recipe := func(req service.JobRequest) json.RawMessage {
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, tc := range []struct {
		file string
		a    Assignment
	}{
		{"assignment_batch.json", Assignment{
			ID: "a7",
			Request: recipe(service.JobRequest{Batch: &service.BatchRequest{
				Devices:   []string{"MangoPi", "VisionFive"},
				Workloads: specs,
				Options:   service.RequestOptions{TimeoutMS: 5000},
			}}),
			Cells:      []Cell{{Index: 1}, {Index: 2, Attempts: 1}},
			DeadlineMS: 1700000000000,
		}},
		{"assignment_sweep.json", Assignment{
			ID: "a8",
			Request: recipe(service.JobRequest{Sweep: &service.SweepRequest{
				Device:    "MangoPi",
				Axes:      []string{"l2=base,128KiB", "maxinflight=1,2"},
				Workloads: specs,
			}}),
			Cells: []Cell{{Index: 0}, {Index: 5}},
		}},
	} {
		got, err := json.Marshal(tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if string(got)+"\n" != string(want) {
			t.Errorf("%s: Assignment encoding changed; got:\n%s\nwant:\n%s", tc.file, got, want)
		}
		var back Assignment
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatalf("%s: decoding the golden: %v", tc.file, err)
		}
		if !reflect.DeepEqual(back, tc.a) {
			t.Errorf("%s: golden decodes to %+v, want %+v", tc.file, back, tc.a)
		}
	}
}
