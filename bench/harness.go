package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"riscvmem/internal/machine"
)

// workloadCap is the hard wall-clock limit of one workload run. Simulated
// regions cannot be interrupted, so the watchdog exits the process.
const workloadCap = 150 * time.Second

// instance is a workload after set-up: everything constructed, caches
// filled, ready for the first timed op.
type instance interface {
	// do performs op i (a counter that keeps rising across blocks) and
	// returns what came back; an error is a harness failure (transport,
	// timeout), not a failed op.
	do(ctx context.Context, i int) (any, error)
	// check reports whether op i's output is correct: HTTP 200, no row
	// error, every row bit-identical to the reference. It runs after the
	// block, outside the timed region.
	check(i int, out any) bool
	// counters snapshots the layer counters the traced run reports.
	counters() (layerCounters, error)
	close() error
}

// workload generates inputs from a seed and sets instances up from them.
type workload interface {
	name() string
	why() string
	// cells lists the distinct cells whose reference rows pin correctness,
	// in canonical order.
	cells() []cell
	// resolve maps a cell's device name to its spec.
	resolve(name string) (machine.Spec, error)
	opsPerBlock() int
	// setup builds a fresh instance; tr is nil for untraced runs.
	setup(ctx context.Context, ref *reference, tr *tracer) (instance, error)
}

// preparer is a workload that needs something on disk before its first
// set-up. prepare runs once per run, untimed, after the reference rows;
// release undoes it.
type preparer interface {
	prepare(ctx context.Context, ref *reference, tr *tracer) error
	release() error
}

// prepared runs w's preparation step, if it has one, and returns its undo.
func prepared(ctx context.Context, st *step, w workload, ref *reference, tr *tracer) (release func() error, err error) {
	p, ok := w.(preparer)
	if !ok {
		return func() error { return nil }, nil
	}
	st.set("preparing inputs")
	if err := p.prepare(ctx, ref, tr); err != nil {
		p.release()
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	return p.release, nil
}

// step names what the harness is doing, for the watchdog's last words; the
// watchdog reads it from its own goroutine.
type step struct{ s atomic.Value }

func (st *step) set(format string, args ...any) { st.s.Store(fmt.Sprintf(format, args...)) }

// watchdog exits the process if a workload outlives its cap. The returned
// stop function disarms it.
func watchdog(name string, st *step) (stop func()) {
	t := time.AfterFunc(workloadCap, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded its %s wall-clock cap during: %s\n", name, workloadCap, st.s.Load())
		os.Exit(3)
	})
	return func() { t.Stop() }
}

// usage returns the process's user+system CPU time so far and its high-water
// resident set in MiB (Linux reports ru_maxrss in KiB). It covers the whole
// process: client, servers and workers all live in it.
func usage() (cpu time.Duration, peakRSSMiB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024, nil
}

var calibArray = make([]uint64, 256<<10/8)

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed xorshift walk over a 256 KiB array that touches no
// repository code. Run before and after every block, it turns "the host was
// noisy" from a note into a measurement.
func calibrate() time.Duration {
	start := time.Now()
	x, sum := uint64(0x9e3779b97f4a7c15), uint64(0)
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += calibArray[x%uint64(len(calibArray))]
		calibArray[x%uint64(len(calibArray))] = x
	}
	calibSink += sum
	return time.Since(start)
}

// runBlock times one block of inst: n ops starting at op index first. With a
// tracer, every op is bracketed by its client.op span.
func runBlock(ctx context.Context, inst instance, tr *tracer, first, n int) (block, error) {
	runtime.GC()
	b := block{lat: make([]float64, n)}
	outs := make([]any, n)
	b.calib[0] = calibrate()
	cpu0, _, err := usage()
	if err != nil {
		return block{}, err
	}
	start := time.Now()
	for k := 0; k < n; k++ {
		var spanID int64
		t := time.Now()
		if tr != nil {
			spanID, t = tr.beginOp(first + k)
		}
		out, err := inst.do(ctx, first+k)
		b.lat[k] = float64(time.Since(t)) / float64(time.Millisecond)
		if tr != nil {
			tr.endOp(spanID, t)
		}
		if err != nil {
			return block{}, fmt.Errorf("op %d: %w", first+k, err)
		}
		outs[k] = out
	}
	b.wall = time.Since(start)
	cpu1, _, err := usage()
	if err != nil {
		return block{}, err
	}
	b.cpu = cpu1 - cpu0
	b.calib[1] = calibrate()
	for k, out := range outs {
		if !inst.check(first+k, out) {
			b.failed++
		}
	}
	return b, nil
}

// measure times minBlocks blocks of inst, then as many more as end before
// until (judged by the longest block so far); then it tears inst down.
func measure(ctx context.Context, st *step, inst instance, tr *tracer, n, minBlocks int, until time.Time) ([]block, error) {
	var blocks []block
	var err error
	var longest time.Duration
	for len(blocks) < minBlocks || time.Now().Add(longest).Before(until) {
		st.set("block %d", len(blocks))
		start := time.Now()
		var b block
		if b, err = runBlock(ctx, inst, tr, len(blocks)*n, n); err != nil {
			err = fmt.Errorf("block %d: %w", len(blocks), err)
			break
		}
		blocks = append(blocks, b)
		longest = max(longest, time.Since(start))
	}
	st.set("teardown")
	if cerr := inst.close(); err == nil && cerr != nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	return blocks, err
}
