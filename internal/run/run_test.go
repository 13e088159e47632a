package run

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"riscvmem/internal/kernels/transpose"
	"riscvmem/internal/machine"
	"riscvmem/internal/sim"
)

// unregister removes a test workload so repeated in-process runs
// (go test -count=2) do not trip the duplicate check.
func unregister(name string) {
	regMu.Lock()
	delete(registry, name)
	regMu.Unlock()
}

func TestRegistry(t *testing.T) {
	t.Cleanup(func() { unregister("test/noop") })
	w := NewFunc("test/noop", func(ctx context.Context, m *sim.Machine) (Result, error) {
		return Result{Seconds: 1}, nil
	})
	if err := Register(w); err != nil {
		t.Fatal(err)
	}
	if err := Register(w); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := Register(nil); err == nil {
		t.Error("nil workload accepted")
	}
	if err := Register(NewFunc("", nil)); err == nil {
		t.Error("empty name accepted")
	}
	got, err := Lookup("test/noop")
	if err != nil || got.Name() != "test/noop" {
		t.Errorf("Lookup = %v, %v", got, err)
	}
	if _, err := Lookup("test/absent"); err == nil {
		t.Error("Lookup of unregistered workload succeeded")
	}
	found := false
	for _, name := range Names() {
		if name == "test/noop" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v, missing test/noop", Names())
	}
}

func TestRunnerResultOrdering(t *testing.T) {
	// Jobs whose workloads report their own index; results must come back
	// in job order regardless of completion order.
	const n = 20
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{Device: machine.MangoPiD1(), Workload: NewFunc(
			fmt.Sprintf("test/idx-%d", i),
			func(ctx context.Context, m *sim.Machine) (Result, error) {
				return Result{Seconds: float64(i)}, nil
			})}
	}
	results, err := New(Options{Parallelism: 7}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Seconds != float64(i) {
			t.Errorf("results[%d].Seconds = %v, want %v", i, r.Seconds, float64(i))
		}
		if r.Workload != fmt.Sprintf("test/idx-%d", i) || r.Device != "MangoPi" {
			t.Errorf("results[%d] identification = %q on %q", i, r.Workload, r.Device)
		}
	}
}

func TestRunnerErrorsJoined(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		{Device: machine.MangoPiD1(), Workload: Transpose(transpose.Config{N: 64})},
		{Device: machine.MangoPiD1(), Workload: NewFunc("test/fail",
			func(ctx context.Context, m *sim.Machine) (Result, error) { return Result{}, boom })},
		{Device: machine.MangoPiD1(), Workload: nil},
	}
	results, err := New(Options{Parallelism: 1}).Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("batch with failing jobs returned nil error")
	}
	if !errors.Is(err, boom) {
		t.Errorf("joined error %v does not wrap the job error", err)
	}
	if !strings.Contains(err.Error(), "test/fail on MangoPi") {
		t.Errorf("error %q lacks job identification", err)
	}
	if results[0].Seconds <= 0 {
		t.Error("successful job before the failure lost its result")
	}
}

func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	jobs := make([]Job, 10)
	for i := range jobs {
		jobs[i] = Job{Device: machine.MangoPiD1(), Workload: NewFunc(
			fmt.Sprintf("test/cancel-%d", i),
			func(ctx context.Context, m *sim.Machine) (Result, error) {
				ran++
				if ran == 3 {
					cancel()
				}
				return Result{Seconds: 1}, nil
			})}
	}
	_, err := New(Options{Parallelism: 1}).Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch error = %v, want context.Canceled", err)
	}
	if ran >= 10 {
		t.Error("cancellation did not stop remaining jobs")
	}
}

func TestRunnerProgress(t *testing.T) {
	jobs := []Job{
		{Device: machine.MangoPiD1(), Workload: Transpose(transpose.Config{N: 64})},
		{Device: machine.VisionFive(), Workload: Transpose(transpose.Config{N: 64})},
		{Device: machine.MangoPiD1(), Workload: nil},
	}
	var seen []Progress
	r := New(Options{Parallelism: 2, OnProgress: func(p Progress) { seen = append(seen, p) }})
	if _, err := r.Run(context.Background(), jobs); err == nil {
		t.Fatal("expected nil-workload error")
	}
	if len(seen) != len(jobs) {
		t.Fatalf("got %d progress callbacks for %d jobs", len(seen), len(jobs))
	}
	failures := 0
	for i, p := range seen {
		if p.Done != i+1 || p.Total != len(jobs) {
			t.Errorf("callback %d: Done/Total = %d/%d", i, p.Done, p.Total)
		}
		if p.Err != nil {
			failures++
		} else if p.Result.Seconds <= 0 {
			t.Errorf("callback %d: successful job carries no result", i)
		}
	}
	if failures != 1 {
		t.Errorf("%d failed callbacks, want 1", failures)
	}
}

// TestRunnerPoolsMachines checks that a serial batch on one device
// constructs a single machine and reuses it via Reset.
func TestRunnerPoolsMachines(t *testing.T) {
	var machines []*sim.Machine
	fresh := sim.MustNew(machine.MangoPiD1()).MustNewF64(64).Addr(0)
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = Job{Device: machine.MangoPiD1(), Workload: NewFunc(
			fmt.Sprintf("test/pool-%d", i),
			func(ctx context.Context, m *sim.Machine) (Result, error) {
				if stats := m.Stats(); stats != (sim.Summary{}) {
					t.Errorf("machine handed out dirty: statistics %+v", stats)
				}
				machines = append(machines, m)
				// Dirty it for the next job: the allocation must start where
				// a fresh machine's does.
				if a := m.MustNewF64(64).Addr(0); a != fresh {
					t.Errorf("machine handed out dirty: first allocation at %#x, fresh machine %#x", a, fresh)
				}
				m.RunSeq(func(c *sim.Core) { c.IntOps(1) })
				return Result{Seconds: 1}, nil
			})}
	}
	r := New(Options{Parallelism: 1})
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(machines); i++ {
		if machines[i] != machines[0] {
			t.Errorf("job %d got a different machine instance; pool did not reuse", i)
		}
	}
}

// TestRunnerDistinguishesSameNameSpecs guards against pool
// cross-contamination: two different Specs that (erroneously) share a Name
// must never share pooled machines — each job runs on hardware matching
// its own spec.
func TestRunnerDistinguishesSameNameSpecs(t *testing.T) {
	base := machine.VisionFive()
	modified := machine.VisionFive()
	// A user models hypothetical silicon but forgets to rename it.
	modified.Mem.DRAM.Channels = 4
	modified.Mem.DRAM.BytesPerCycle = 2.0

	probe := func(i int) Workload {
		return NewFunc(fmt.Sprintf("test/ident-%d", i),
			func(ctx context.Context, m *sim.Machine) (Result, error) {
				return Result{Seconds: float64(m.Spec().Mem.DRAM.Channels)}, nil
			})
	}
	// Alternate the two specs so naive name-keyed pooling would hand the
	// second job the first job's machine.
	jobs := []Job{
		{Device: base, Workload: probe(0)},
		{Device: modified, Workload: probe(1)},
		{Device: base, Workload: probe(2)},
		{Device: modified, Workload: probe(3)},
	}
	results, err := New(Options{Parallelism: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 2, 4}
	for i, r := range results {
		if r.Seconds != want[i] {
			t.Errorf("job %d ran on a machine with %v DRAM channels, want %v", i, r.Seconds, want[i])
		}
	}

	// Sanity-check the identity itself: equal for same parameters, distinct
	// for modified ones.
	if base.Identity() != machine.VisionFive().Identity() {
		t.Error("identical presets have distinct identities (pooling disabled)")
	}
	if base.Identity() == modified.Identity() {
		t.Error("modified preset shares the base identity")
	}
}

func TestCross(t *testing.T) {
	devs := []machine.Spec{machine.XeonServer(), machine.MangoPiD1()}
	ws := []Workload{
		Transpose(transpose.Config{N: 64, Variant: transpose.Naive}),
		Transpose(transpose.Config{N: 64, Variant: transpose.Blocking}),
	}
	jobs := Cross(devs, ws)
	if len(jobs) != 4 {
		t.Fatalf("len = %d", len(jobs))
	}
	if jobs[0].Device.Name != "Xeon" || jobs[1].Device.Name != "Xeon" ||
		jobs[2].Device.Name != "MangoPi" || jobs[3].Device.Name != "MangoPi" {
		t.Error("device-major order violated")
	}
	if jobs[0].Workload.Name() != "transpose/Naive" || jobs[1].Workload.Name() != "transpose/Blocking" {
		t.Errorf("workload order: %s, %s", jobs[0].Workload.Name(), jobs[1].Workload.Name())
	}
}

func TestRunOne(t *testing.T) {
	r := New(Options{})
	res, err := r.RunOne(context.Background(), machine.VisionFive(),
		Transpose(transpose.Config{N: 128, Variant: transpose.Blocking, Verify: true}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 || res.Cycles <= 0 || res.Bytes != 16*128*128 {
		t.Errorf("RunOne result %+v", res)
	}
	if res.Workload != "transpose/Blocking" || res.Device != "VisionFive" {
		t.Errorf("identification %q on %q", res.Workload, res.Device)
	}
	if res.Mem.L1Hits == 0 || res.Mem.DRAMBytes == 0 {
		t.Errorf("memory summary empty: %+v", res.Mem)
	}
}

// TestRunnerFillsMemSummary checks that a custom workload which does not
// snapshot the memory counters itself still gets them from the runner.
func TestRunnerFillsMemSummary(t *testing.T) {
	w := NewFunc("test/mem-autofill", func(ctx context.Context, m *sim.Machine) (Result, error) {
		a, err := m.NewF64(4096)
		if err != nil {
			return Result{}, err
		}
		res := m.RunSeq(func(c *sim.Core) {
			for i := 0; i < len(a.Data); i++ {
				a.Store(c, i, 1)
			}
		})
		return Result{Cycles: res.Cycles}, nil // Mem deliberately left empty
	})
	res, err := New(Options{}).RunOne(context.Background(), machine.MangoPiD1(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.L1Misses == 0 || res.Mem.DRAMBytes == 0 {
		t.Errorf("runner did not fill the memory summary: %+v", res.Mem)
	}
}

func TestResultMetrics(t *testing.T) {
	base := Result{Seconds: 2, Bytes: 100}
	opt := Result{Seconds: 1, Bytes: 100}
	if sp := opt.SpeedupOver(base); sp != 2 {
		t.Errorf("SpeedupOver = %v", sp)
	}
}
