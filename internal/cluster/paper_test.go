package cluster

import (
	"context"
	"testing"

	"riscvmem/internal/core"
	"riscvmem/internal/machine"
	"riscvmem/internal/run"
	"riscvmem/internal/service"
)

// TestPaperManifestOverTheWire makes the paper itself the wire-parity
// oracle. It sends the scale-32 manifest for the VisionFive and the Mango
// Pi as batch requests, one per device and every cell that fits, to a
// standalone Service and to an in-process Coordinator with two workers, and
// requires each row to equal the Suite's result for the same cell: seconds,
// bandwidth and memory counters, bit for bit.
func TestPaperManifestOverTheWire(t *testing.T) {
	ctx := context.Background()
	suite := core.NewSuite(core.Options{Scale: 32, Devices: []machine.Spec{machine.VisionFive(), machine.MangoPiD1()}})
	var cells []core.Cell
	var reqs []service.BatchRequest
	for _, dev := range suite.Options().Devices {
		req := service.BatchRequest{Devices: []string{dev.Name}}
		for _, fig := range []int{1, 2, 6} {
			for i, arg := range suite.Manifest()[fig] {
				if !core.Fits(dev, fig, i) {
					continue
				}
				expanded, err := core.Expand(dev, run.MustParseWorkloadSpec(arg), 32)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range expanded {
					cells = append(cells, c)
					req.Workloads = append(req.Workloads, c.Spec)
				}
			}
		}
		reqs = append(reqs, req)
	}
	want, err := suite.Run(cells)
	if err != nil {
		t.Fatal(err)
	}

	coord := New(Options{Logf: t.Logf})
	defer coord.Close()
	w1 := startWorker(t, coord, "w1", nil)
	w2 := startWorker(t, coord, "w2", nil)
	defer w2.stop()
	defer w1.stop()
	waitForWorkers(t, coord, 2)

	for _, side := range []struct {
		name string
		svc  *service.Service
	}{{"standalone", service.New(service.Options{})}, {"coordinator", coord.Service()}} {
		var rows []service.ResultRow
		for _, req := range reqs {
			resp, err := side.svc.Batch(ctx, req)
			if err != nil {
				t.Fatalf("%s: %v", side.name, err)
			}
			rows = append(rows, resp.Results...)
		}
		if len(rows) != len(want) {
			t.Fatalf("%s: %d rows for %d manifest cells", side.name, len(rows), len(want))
		}
		for i, row := range rows {
			if row.Error != "" || row.Result != want[i] {
				t.Errorf("%s row %d (%s on %s): %+v %q, Suite %+v", side.name, i, cells[i].Spec, cells[i].Device.Name, row.Result, row.Error, want[i])
			}
		}
	}
}
