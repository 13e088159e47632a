package riscvmem_test

import (
	"context"
	"encoding/json"
	"maps"
	"sync"
	"testing"

	"riscvmem"
	"riscvmem/internal/core"
)

func TestDevicesFacade(t *testing.T) {
	devs := riscvmem.Devices()
	if len(devs) != 4 {
		t.Fatalf("Devices() = %d entries", len(devs))
	}
	for _, d := range devs {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestVariantEnumerations(t *testing.T) {
	if len(riscvmem.TransposeVariants()) != 5 {
		t.Error("expected 5 transpose variants")
	}
	if len(riscvmem.BlurVariants()) != 5 {
		t.Error("expected 5 blur variants")
	}
}

func TestCustomMachineKernel(t *testing.T) {
	// The raw Machine/Core API examples/customdevice writes its kernel
	// against, here in a two-core region.
	var data []float64
	w := riscvmem.WorkloadFunc("facade/two-core-store",
		func(ctx context.Context, m *riscvmem.Machine) (riscvmem.Result, error) {
			a, err := m.NewF64(4096)
			if err != nil {
				return riscvmem.Result{}, err
			}
			res := m.Run(2, func(c *riscvmem.Core) {
				for i := c.ID(); i < len(a.Data); i += 2 {
					a.Store(c, i, float64(i))
				}
			})
			data = a.Data
			return riscvmem.Result{Cycles: res.Cycles}, nil
		})
	res, err := riscvmem.NewRunner(riscvmem.RunnerOptions{}).RunOne(context.Background(), riscvmem.VisionFive(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no simulated time")
	}
	for i, v := range data {
		if v != float64(i) {
			t.Fatalf("a[%d] = %v", i, v)
		}
	}
}

func TestPaperConstants(t *testing.T) {
	if core.PaperMatrixSmall != 8192 || core.PaperMatrixLarge != 16384 {
		t.Error("matrix constants drifted from §4.2")
	}
	if riscvmem.PaperImageW != 2544 || riscvmem.PaperImageH != 2027 ||
		riscvmem.PaperImageC != 3 || riscvmem.PaperFilter != 19 {
		t.Error("image constants drifted from §4.3")
	}
}

var registerTouch sync.Once

func TestRunnerFacade(t *testing.T) {
	// The Workload/Runner surface: batch a device × workload cross-product
	// with verification on, and run a registered custom workload.
	dev := riscvmem.MangoPiD1()
	runner := riscvmem.NewRunner(riscvmem.RunnerOptions{})
	ctx := context.Background()

	jobs := riscvmem.Jobs([]riscvmem.Device{dev}, []riscvmem.Workload{
		riscvmem.StreamWorkload(riscvmem.StreamConfig{Test: riscvmem.StreamTriad, Elems: 1024, Reps: 1}),
		riscvmem.TransposeWorkload(riscvmem.TransposeConfig{
			N: 128, Variant: riscvmem.TransposeBlocking, Verify: true}),
		riscvmem.BlurWorkload(riscvmem.BlurConfig{
			W: 24, H: 20, C: 3, F: 5, Variant: riscvmem.BlurOneD, Verify: true}),
	})
	results, err := runner.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, res := range results {
		if res.Seconds <= 0 || res.Bandwidth <= 0 {
			t.Errorf("%s: %v s, %v", res.Workload, res.Seconds, res.Bandwidth)
		}
	}
	if results[1].Workload != "transpose/Blocking" || results[1].Device != "MangoPi" {
		t.Errorf("result identification: %q on %q", results[1].Workload, results[1].Device)
	}

	// Custom workloads: registry + WorkloadFunc + RunOne. Registration is
	// process-global with no unregister, so it happens once per process
	// (go test -count=2 runs this test twice).
	registerTouch.Do(func() {
		riscvmem.MustRegister(riscvmem.WorkloadFunc("facade/touch",
			func(ctx context.Context, m *riscvmem.Machine) (riscvmem.Result, error) {
				a, err := m.NewF64(512)
				if err != nil {
					return riscvmem.Result{}, err
				}
				res := m.RunSeq(func(c *riscvmem.Core) {
					for i := 0; i < len(a.Data); i++ {
						a.Store(c, i, 1)
					}
				})
				return riscvmem.Result{Cycles: res.Cycles, Seconds: res.Seconds(m.Spec())}, nil
			}))
	})
	w, err := riscvmem.WorkloadByName("facade/touch")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.RunOne(ctx, dev, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Workload != "facade/touch" {
		t.Errorf("custom workload result %+v", res)
	}
}

func TestWorkloadSpecFacade(t *testing.T) {
	spec := riscvmem.MustParseWorkloadSpec("stream:test=TRIAD,elems=4096,reps=1")
	if got := spec.String(); got != "stream:elems=4096,reps=1,test=TRIAD" {
		t.Errorf("canonical form = %q", got)
	}
	back := riscvmem.MustParseWorkloadSpec(spec.String())
	if back.Kernel != spec.Kernel || !maps.Equal(back.Params, spec.Params) {
		t.Fatalf("round trip: %+v, want %+v", back, spec)
	}
	var fromJSON riscvmem.WorkloadSpec
	if err := json.Unmarshal([]byte(`"stream/TRIAD"`), &fromJSON); err != nil {
		t.Fatal(err)
	}
	if got := fromJSON.With("elems", "4096").With("reps", "1"); got.String() != spec.String() {
		t.Errorf("shorthand plus With = %q, want %q", got, spec)
	}
}

func TestServiceFacade(t *testing.T) {
	svc := riscvmem.NewService(riscvmem.ServiceOptions{})
	resp, err := svc.Batch(context.Background(), riscvmem.BatchRequest{
		Devices: []string{"MangoPi"},
		Workloads: []riscvmem.WorkloadSpec{
			riscvmem.MustParseWorkloadSpec("stream:test=COPY,elems=1024,reps=1"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Seconds <= 0 {
		t.Fatalf("service batch: %+v", resp)
	}
	if h := riscvmem.NewServiceHandler(svc); h == nil {
		t.Fatal("nil handler")
	}
	sres, err := svc.Sweep(context.Background(), riscvmem.SweepRequest{
		Device: "MangoPi", Axes: []string{"maxinflight=base,2"},
		Workloads: []riscvmem.WorkloadSpec{
			riscvmem.MustParseWorkloadSpec("transpose:variant=Naive,n=64"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Results) != 2 {
		t.Fatalf("service sweep: %+v", sres)
	}
}
