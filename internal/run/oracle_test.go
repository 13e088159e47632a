package run

import (
	"context"
	"testing"

	"riscvmem/internal/kernels/blur"
	"riscvmem/internal/kernels/stream"
	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
	"riscvmem/internal/units"
)

// crossProduct builds the full kernel×variant×device evaluation grid at
// test scale: 4 STREAM tests + 5 transposition variants + 5 blur variants
// on each of the paper's 4 devices (56 jobs).
func crossProduct() []Job {
	var jobs []Job
	for _, spec := range machine.All() {
		for _, t := range stream.Tests() {
			jobs = append(jobs, Job{Device: spec, Workload: Stream(stream.Config{
				Test: t, Elems: 2000, Cores: spec.Cores, Reps: 2,
			})})
		}
		for _, v := range transpose.Variants() {
			jobs = append(jobs, Job{Device: spec, Workload: Transpose(transpose.Config{
				N: 128, Variant: v, Verify: true,
			})})
		}
		for _, v := range blur.Variants() {
			jobs = append(jobs, Job{Device: spec, Workload: Blur(blur.Config{
				W: 64, H: 48, C: 3, F: 9, Variant: v, Verify: true,
			})})
		}
	}
	return jobs
}

// serialResult runs one job the pre-Runner way — the kernel's own RunOn on
// a fresh machine — and maps it to the unified Result exactly like the
// adapters do.
func serialResult(t *testing.T, job Job) Result {
	t.Helper()
	spec := job.Device
	switch w := job.Workload.(type) {
	case streamWorkload:
		meas, err := stream.RunOn(sim.MustNew(spec), w.cfg)
		if err != nil {
			t.Fatal(err)
		}
		return Result{
			Workload: w.Name(), Device: spec.Name,
			Cycles:  meas.BestCycles,
			Seconds: units.Seconds(meas.BestCycles, spec.FreqGHz),
			Bytes:   meas.Bytes, Bandwidth: meas.Best, Mem: meas.Mem,
		}
	case transposeWorkload:
		res, err := transpose.RunOn(sim.MustNew(spec), w.cfg)
		if err != nil {
			t.Fatal(err)
		}
		bytes := transpose.BytesMoved(res.N)
		return Result{
			Workload: w.Name(), Device: spec.Name,
			Cycles: res.Cycles, Seconds: res.Seconds,
			Bytes:     bytes,
			Bandwidth: units.Bandwidth(bytes, res.Cycles, spec.FreqGHz),
			Mem:       res.Mem,
		}
	case blurWorkload:
		res, err := blur.RunOn(sim.MustNew(spec), w.cfg)
		if err != nil {
			t.Fatal(err)
		}
		bytes := blur.BytesMoved(res.W, res.H, res.C)
		return Result{
			Workload: w.Name(), Device: spec.Name,
			Cycles: res.Cycles, Seconds: res.Seconds,
			Bytes:     bytes,
			Bandwidth: units.Bandwidth(bytes, res.Cycles, spec.FreqGHz),
			Mem:       res.Mem,
		}
	}
	t.Fatalf("unknown workload type %T", job.Workload)
	return Result{}
}

// TestBatchOracle is the redesign's oracle: a batched Runner pass over the
// full kernel×variant×device cross-product — parallel workers, pooled
// machines reused via Reset — must yield bit-identical simulated seconds,
// cycles, bandwidths, and memory-system statistics to the serial
// per-function path on fresh machines.
func TestBatchOracle(t *testing.T) {
	jobs := crossProduct()
	// 4 workers against 56 jobs forces heavy machine reuse through the pool.
	r := New(Options{Parallelism: 4})
	batched, err := r.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(batched), len(jobs))
	}
	for i, job := range jobs {
		want := serialResult(t, job)
		if batched[i] != want {
			t.Errorf("job %d (%s on %s): batched result diverges from serial path:\n got %+v\nwant %+v",
				i, job.Workload.Name(), job.Device.Name, batched[i], want)
		}
	}
}

// TestBatchDeterminism runs the same batch twice at different parallelism
// and requires identical results — host scheduling must never leak into
// simulated outcomes.
func TestBatchDeterminism(t *testing.T) {
	jobs := crossProduct()
	a, err := New(Options{Parallelism: 8}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Parallelism: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("job %d: parallel %+v != serial %+v", i, a[i], b[i])
		}
	}
}
