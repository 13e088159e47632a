package riscvmem_test

import (
	"context"
	"strings"
	"testing"

	"riscvmem"
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
		got, err := riscvmem.DeviceByName(d.Name)
		if err != nil || got.Name != d.Name {
			t.Errorf("DeviceByName(%q) = %v, %v", d.Name, got.Name, err)
		}
	}
	if _, err := riscvmem.DeviceByName("PDP-11"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestVariantEnumerations(t *testing.T) {
	if len(riscvmem.StreamTests()) != 4 {
		t.Error("expected 4 STREAM tests")
	}
	if len(riscvmem.TransposeVariants()) != 5 {
		t.Error("expected 5 transpose variants")
	}
	if len(riscvmem.BlurVariants()) != 5 {
		t.Error("expected 5 blur variants")
	}
}

func TestCustomMachineKernel(t *testing.T) {
	// The raw Machine/Core API used by examples/customdevice.
	m, err := riscvmem.NewMachine(riscvmem.VisionFive())
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.NewF64(4096)
	if err != nil {
		t.Fatal(err)
	}
	res := m.ParallelFor(2, len(a.Data), riscvmem.Static, 0, func(c *riscvmem.Core, i int) {
		a.Store(c, i, float64(i))
	})
	if res.Cycles <= 0 {
		t.Fatal("no simulated time")
	}
	for i, v := range a.Data {
		if v != float64(i) {
			t.Fatalf("a[%d] = %v", i, v)
		}
	}
}

func TestSuiteFacade(t *testing.T) {
	suite := riscvmem.NewSuite(riscvmem.Options{
		Scale:   64,
		Devices: []riscvmem.Device{riscvmem.MangoPiD1()},
		Reps:    1,
	})
	rows, err := suite.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 1 device × 2 sizes × 5 variants
		t.Fatalf("Fig2 rows = %d", len(rows))
	}
	bw, err := suite.DRAMBandwidth(riscvmem.MangoPiD1())
	if err != nil {
		t.Fatal(err)
	}
	if bw <= 0 {
		t.Error("no DRAM bandwidth")
	}
}

func TestPaperConstants(t *testing.T) {
	if riscvmem.PaperMatrixSmall != 8192 || riscvmem.PaperMatrixLarge != 16384 {
		t.Error("matrix constants drifted from §4.2")
	}
	if riscvmem.PaperImageW != 2544 || riscvmem.PaperImageH != 2027 ||
		riscvmem.PaperImageC != 3 || riscvmem.PaperFilter != 19 {
		t.Error("image constants drifted from §4.3")
	}
}

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
	// process-global with no unregister, so repeated in-process runs
	// (go test -count=2) see a duplicate — tolerated below.
	err = riscvmem.Register(riscvmem.WorkloadFunc("facade/touch",
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
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
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
	names := riscvmem.RegisteredWorkloads()
	found := false
	for _, n := range names {
		found = found || n == "facade/touch"
	}
	if !found {
		t.Errorf("RegisteredWorkloads() = %v", names)
	}
}

func TestWorkloadSpecFacade(t *testing.T) {
	spec, err := riscvmem.ParseWorkloadSpec("stream:test=TRIAD,elems=4096,reps=1")
	if err != nil {
		t.Fatal(err)
	}
	back, err := riscvmem.ParseWorkloadSpec(spec.String())
	if err != nil || !back.Equal(spec) {
		t.Fatalf("round trip: %+v, %v", back, err)
	}
	w, err := riscvmem.NewWorkloadFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "stream/TRIAD" {
		t.Errorf("Name = %q", w.Name())
	}
	if _, err := riscvmem.ParseWorkload("transpose/Blocking"); err != nil {
		t.Errorf("shorthand: %v", err)
	}
	if _, err := riscvmem.ParseWorkload("warp:speed=9"); err == nil ||
		!strings.Contains(err.Error(), "kernels:") {
		t.Errorf("unknown kernel error = %v", err)
	}
	kernels := riscvmem.Kernels()
	if len(kernels) < 3 {
		t.Errorf("Kernels() = %v", kernels)
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
