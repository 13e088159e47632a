package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"riscvmem/internal/run"
	"riscvmem/internal/sim"
)

// The slow workload blocks until released or its context ends — the knob
// the admission and timeout tests turn. Each test re-arms its own pair of
// channels (the registry is process-wide, so the workload itself registers
// once and reads the current pair).
var (
	slowOnce    sync.Once
	slowMu      sync.Mutex
	slowStarted chan struct{}
	slowRelease chan struct{}
)

// armSlow registers the slow workload (once) and installs fresh channels
// for this test, returning them with the workload's registry name.
func armSlow() (name string, started, release chan struct{}) {
	slowOnce.Do(func() {
		err := run.Register(run.NewFunc("svc-test-slow",
			func(ctx context.Context, m *sim.Machine) (run.Result, error) {
				slowMu.Lock()
				st, rel := slowStarted, slowRelease
				slowMu.Unlock()
				st <- struct{}{}
				select {
				case <-rel:
					return run.Result{Seconds: 1}, nil
				case <-ctx.Done():
					return run.Result{}, ctx.Err()
				}
			}))
		if err != nil {
			panic(err)
		}
	})
	slowMu.Lock()
	defer slowMu.Unlock()
	slowStarted = make(chan struct{}, 64)
	slowRelease = make(chan struct{})
	return "svc-test-slow", slowStarted, slowRelease
}

func TestBatchValidation(t *testing.T) {
	svc := New(Options{})
	ctx := context.Background()

	if _, err := svc.Batch(ctx, BatchRequest{}); err == nil {
		t.Error("no workloads: expected error")
	}
	_, err := svc.Batch(ctx, BatchRequest{
		Devices:   []string{"Atari2600"},
		Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("stream/TRIAD")},
	})
	if err == nil || !strings.Contains(err.Error(), "MangoPi") {
		t.Errorf("unknown device error = %v, want the valid device list", err)
	}
	_, err = svc.Batch(ctx, BatchRequest{
		Workloads: []run.WorkloadSpec{{Kernel: "nope"}},
	})
	if err == nil || !strings.Contains(err.Error(), "kernels:") {
		t.Errorf("unknown kernel error = %v, want the kernel list", err)
	}

	small := New(Options{MaxJobs: 2})
	_, err = small.Batch(ctx, BatchRequest{ // 4 devices × 1 workload = 4 > 2
		Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("stream/TRIAD")},
	})
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized request error = %v, want the job limit", err)
	}
}

func TestSweepValidation(t *testing.T) {
	svc := New(Options{})
	ctx := context.Background()
	wl := []run.WorkloadSpec{run.MustParseWorkloadSpec("transpose:variant=Naive,n=64")}

	if _, err := svc.Sweep(ctx, SweepRequest{Workloads: wl}); err == nil {
		t.Error("no device: expected error")
	}
	_, err := svc.Sweep(ctx, SweepRequest{Device: "MangoPi", Axes: []string{"warp=9"}, Workloads: wl})
	if err == nil || !strings.Contains(err.Error(), "axes:") {
		t.Errorf("unknown axis error = %v, want the axis list", err)
	}
	if _, err := svc.Sweep(ctx, SweepRequest{Device: "MangoPi"}); err == nil {
		t.Error("no workloads: expected error")
	}

	// An oversized cross-product is bounded from the axis point counts —
	// before expansion allocates a Spec per cell.
	small := New(Options{MaxJobs: 4})
	_, err = small.Sweep(ctx, SweepRequest{
		Device:    "MangoPi",
		Axes:      []string{"maxinflight=1,2,4", "dramlat=50,100,200"}, // 9 cells
		Workloads: wl,
	})
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized sweep error = %v, want the job limit", err)
	}
}

// TestHostFootprintRefusedAtPlanning pins the host-memory bound: a cell
// that could make the host allocate more than maxHostBytes is refused at
// planning as a ValidationError (400 over HTTP), before anything is
// allocated. The first case is a STREAM COPY whose first two 3.2 GB arrays
// VisionFive's simulated RAM admits before it refuses the third; the same
// cell on MangoPi allocates nothing (its RAM refuses the first array), so
// it plans and fails at run, per row. A staging transposition is sized by
// its device's cores.
func TestHostFootprintRefusedAtPlanning(t *testing.T) {
	for _, tc := range []struct {
		device, spec string
		refused      bool
	}{
		{"VisionFive", "stream:test=COPY,elems=400000000,reps=1", true},
		{"MangoPi", "stream:test=COPY,elems=400000000,reps=1", false},
		{"VisionFive", "stream:test=COPY,elems=44739242", false}, // 24 B an element: at the bound
		{"VisionFive", "stream:test=COPY,elems=44739243", true},
		{"Xeon", "transpose:variant=Naive,n=16384", true},
		{"Xeon", "transpose:variant=Naive,n=8192", false},
		{"Xeon", "gblur:variant=Memory,w=10000,h=10000,c=3,verify=true", true},
		{"MangoPi", "gblur:variant=Naive,w=2147483647,h=2147483647,c=3,verify=true", true}, // the sum saturates
		{"MangoPi", "transpose:variant=Manual_blocking,n=4096,block=4096", false},
		{"", "transpose:variant=Manual_blocking,n=4096,block=4096", true}, // all presets: Xeon's 10 cores
	} {
		req := BatchRequest{Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec(tc.spec)}}
		if tc.device != "" {
			req.Devices = []string{tc.device}
		}
		_, err := PlanRequest(JobRequest{Batch: &req}, 0)
		var valErr *ValidationError
		if refused := errors.As(err, &valErr) && strings.Contains(err.Error(), "host memory"); refused != tc.refused {
			t.Errorf("%s on %q: planning error %v, want refused %v", tc.spec, tc.device, err, tc.refused)
		}
	}

	if t.Failed() {
		t.FailNow() // the bound is broken: serving the request would allocate its arrays
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, _, body := postTo(NewHandler(New(Options{})), "/v1/batch",
		`{"devices":["VisionFive"],"workloads":["stream:test=COPY,elems=400000000,reps=1"]}`, "")
	runtime.ReadMemStats(&after)
	if code != http.StatusBadRequest || !strings.Contains(body, "host memory") {
		t.Errorf("POST /v1/batch: HTTP %d %s, want 400 naming the host memory", code, body)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("refusing the request allocated %d bytes, want nothing of its arrays", n)
	}
}

// TestAdmissionLimit pins the fail-fast admission mode (MaxQueue -1): with
// MaxInFlight 1 and no queue, a second concurrent request fails fast with
// ErrOverloaded, and the slot frees once the first request completes.
func TestAdmissionLimit(t *testing.T) {
	name, started, release := armSlow()
	svc := New(Options{MaxInFlight: 1, MaxQueue: -1})
	ctx := context.Background()
	req := BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{{Kernel: name}},
	}

	done := make(chan error, 1)
	go func() {
		_, err := svc.Batch(ctx, req)
		done <- err
	}()
	<-started // the first request holds the only slot

	if _, err := svc.Batch(ctx, req); !errors.Is(err, ErrOverloaded) {
		t.Errorf("second request error = %v, want ErrOverloaded", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("first request failed: %v", err)
	}
	// Slot released: an ordinary request is admitted again.
	if _, err := svc.Batch(ctx, BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("stream:test=COPY,elems=1024,reps=1")},
	}); err != nil {
		t.Errorf("post-release request: %v", err)
	}
}

// TestRequestTimeout pins the per-request timeout: jobs cut off by the
// request deadline land as row errors, not a transport hang.
func TestRequestTimeout(t *testing.T) {
	name, _, _ := armSlow()
	svc := New(Options{})
	resp, err := svc.Batch(context.Background(), BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{{Kernel: name}},
		Options:   RequestOptions{TimeoutMS: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Errors) == 0 || resp.Results[0].Error == "" {
		t.Fatalf("timed-out job not reported: %+v", resp)
	}
	if !strings.Contains(resp.Results[0].Error, "deadline") {
		t.Errorf("row error = %q, want a deadline error", resp.Results[0].Error)
	}
	// The failed row still identifies its job.
	if resp.Results[0].Workload != name || resp.Results[0].Device != "MangoPi" {
		t.Errorf("failed row unidentified: %+v", resp.Results[0])
	}
}

// registerFailing registers (once) a workload that always errors.
var failOnce sync.Once

func registerFailing() {
	failOnce.Do(func() {
		err := run.Register(run.NewFunc("svc-test-fail",
			func(ctx context.Context, m *sim.Machine) (run.Result, error) {
				return run.Result{}, errors.New("synthetic failure")
			}))
		if err != nil {
			panic(err)
		}
	})
}

// TestSweepExecutionError pins the error classification: a sweep that
// validated but failed while running returns an ExecutionError.
func TestSweepExecutionError(t *testing.T) {
	registerFailing()
	svc := New(Options{})
	_, err := svc.Sweep(context.Background(), SweepRequest{
		Device:    "MangoPi",
		Workloads: []run.WorkloadSpec{{Kernel: "svc-test-fail"}},
	})
	var exec *ExecutionError
	if !errors.As(err, &exec) {
		t.Fatalf("sweep error = %v, want ExecutionError", err)
	}
}

// TestNoTimeoutIsUnbounded pins that MaxTimeout caps configured timeouts
// but does not invent one: with no default and no request timeout, the
// request context carries no deadline.
func TestNoTimeoutIsUnbounded(t *testing.T) {
	svc := New(Options{MaxTimeout: time.Millisecond})
	ctx, cancel := svc.timeoutCtx(context.Background(), RequestOptions{})
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Error("no configured timeout, but the context has a deadline")
	}
	ctx2, cancel2 := svc.timeoutCtx(context.Background(), RequestOptions{TimeoutMS: 60_000})
	defer cancel2()
	if dl, ok := ctx2.Deadline(); !ok || time.Until(dl) > time.Second {
		t.Errorf("request timeout not capped: deadline %v ok=%v", dl, ok)
	}
}

// TestTimeoutClamp pins MaxTimeout clamping request-supplied values.
func TestTimeoutClamp(t *testing.T) {
	name, _, _ := armSlow()
	svc := New(Options{MaxTimeout: 20 * time.Millisecond})
	start := time.Now()
	resp, err := svc.Batch(context.Background(), BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{{Kernel: name}},
		Options:   RequestOptions{TimeoutMS: 60_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request ran %v despite 20ms cap", elapsed)
	}
	if len(resp.Errors) == 0 {
		t.Error("clamped request should have timed out")
	}
}

// TestSkippedJobsCollapse pins that a batch whose jobs were skipped
// wholesale by a dead context reports one counted Errors entry, not one
// line per job (rows keep their individual error fields).
func TestSkippedJobsCollapse(t *testing.T) {
	svc := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead before any job runs
	specs := make([]run.WorkloadSpec, 16)
	for i := range specs {
		specs[i] = run.MustParseWorkloadSpec("stream:test=COPY,elems=1024,reps=1")
	}
	resp, err := svc.Batch(ctx, BatchRequest{Devices: []string{"MangoPi"}, Workloads: specs})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Errors) != 1 || !strings.Contains(resp.Errors[0], "16 jobs skipped") {
		t.Errorf("Errors = %v, want one collapsed entry", resp.Errors)
	}
	for i, row := range resp.Results {
		if row.Error == "" {
			t.Errorf("row %d lost its error", i)
		}
	}
}

// TestPartialFailure: one failing workload does not void the batch.
func TestPartialFailure(t *testing.T) {
	svc := New(Options{})
	resp, err := svc.Batch(context.Background(), BatchRequest{
		Devices: []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{
			run.MustParseWorkloadSpec("stream:test=COPY,elems=1024,reps=1"),
			run.MustParseWorkloadSpec("transpose:variant=Naive,n=0"), // invalid at run time
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" || resp.Results[0].Seconds <= 0 {
		t.Errorf("good row broken: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" {
		t.Errorf("bad row not reported: %+v", resp.Results[1])
	}
	if len(resp.Errors) != 1 {
		t.Errorf("Errors = %v, want exactly one", resp.Errors)
	}
}

// TestRequestJSONRoundTrip pins the wire types: requests and responses
// survive marshal/unmarshal unchanged.
func TestRequestJSONRoundTrip(t *testing.T) {
	breq := BatchRequest{
		Devices: []string{"MangoPi", "Xeon"},
		Workloads: []run.WorkloadSpec{
			run.MustParseWorkloadSpec("stream:test=TRIAD,elems=4096"),
			run.MustParseWorkloadSpec("transpose/Blocking"),
		},
		Options: RequestOptions{TimeoutMS: 1500},
	}
	data, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	var breq2 BatchRequest
	if err := json.Unmarshal(data, &breq2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(breq, breq2) {
		t.Errorf("BatchRequest round trip: %+v != %+v", breq2, breq)
	}

	sreq := SweepRequest{
		Device:    "MangoPi",
		Axes:      []string{"l2=off,base", "maxinflight=1,2"},
		Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("gblur/Memory")},
	}
	data, err = json.Marshal(sreq)
	if err != nil {
		t.Fatal(err)
	}
	var sreq2 SweepRequest
	if err := json.Unmarshal(data, &sreq2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sreq, sreq2) {
		t.Errorf("SweepRequest round trip: %+v != %+v", sreq2, sreq)
	}

	// A real response round-trips too (covers Result/Summary marshaling).
	svc := New(Options{})
	resp, err := svc.Batch(context.Background(), BatchRequest{
		Devices:   []string{"MangoPi"},
		Workloads: []run.WorkloadSpec{run.MustParseWorkloadSpec("stream:test=COPY,elems=1024,reps=1")},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var resp2 Response
	if err := json.Unmarshal(data, &resp2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*resp, resp2) {
		t.Errorf("Response round trip:\n got %+v\nwant %+v", resp2, *resp)
	}
}

// TestListings covers Devices and Workloads discovery payloads.
func TestListings(t *testing.T) {
	svc := New(Options{})
	devs := svc.Devices()
	if len(devs) != 4 {
		t.Fatalf("Devices() = %d entries, want 4", len(devs))
	}
	names := map[string]bool{}
	for _, d := range devs {
		names[d.Name] = true
		if d.CPU == "" || d.FreqGHz <= 0 || d.RAMBytes <= 0 || d.PeakDRAMBandwidth == "" {
			t.Errorf("device %q underdescribed: %+v", d.Name, d)
		}
	}
	for _, want := range []string{"Xeon", "RaspberryPi4", "VisionFive", "MangoPi"} {
		if !names[want] {
			t.Errorf("device %q missing", want)
		}
	}

	info := svc.Workloads()
	if len(info.Kernels) < 3 || info.Grammar == "" || len(info.SweepAxes) == 0 {
		t.Errorf("Workloads() underdescribed: %+v", info)
	}
}
