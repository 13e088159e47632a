package main

import (
	"fmt"
	"math/rand/v2"

	"riscvmem/internal/kernels/stream"
	"riscvmem/internal/machine"
	"riscvmem/internal/run"
)

// defaultSeed is the seed bench/golden.json pins reference digests for.
const defaultSeed = 20230901

// cell is one (device, workload) pair as data: a preset name and a spec in
// the CLI grammar. The program under test only ever sees these strings.
type cell struct {
	Device string
	Spec   string
}

func (c cell) String() string { return c.Device + " " + c.Spec }

// job materializes the cell through the same public parsers simd uses;
// resolve maps the device name to its spec (machine.ByName for presets).
func (c cell) job(resolve func(string) (machine.Spec, error)) (run.Job, error) {
	dev, err := resolve(c.Device)
	if err != nil {
		return run.Job{}, err
	}
	w, err := run.ParseWorkload(c.Spec)
	if err != nil {
		return run.Job{}, err
	}
	return run.Job{Device: dev, Workload: w}, nil
}

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// pick returns one of the options, seed-chosen. Every call site offers
// alternatives that cost the simulator the same host work (COPY and SCALE
// touch the same two arrays, SUM and TRIAD the same three), so the seed
// changes the inputs without changing how much a run measures.
func pick(rng *rand.Rand, options ...string) string { return options[rng.IntN(len(options))] }

func streamSpec(test string, elems, cores int) string {
	return fmt.Sprintf("stream:test=%s,elems=%d,cores=%d,reps=1", test, elems, cores)
}

func transposeSpec(variant string, n int) string {
	return fmt.Sprintf("transpose:variant=%s,n=%d", variant, n)
}

// blurFilter is the paper's 19-tap Gaussian.
const blurFilter = 19

func blurSpec(variant string, w, h int) string {
	return fmt.Sprintf("gblur:variant=%s,w=%d,h=%d,c=3,f=%d", variant, w, h, blurFilter)
}

// simRound is the input of a sim_* workload: the cells one op simulates, each
// cold, in seed-shuffled order. Every op of every block runs the same round,
// so a block's latency percentiles are the spread of one repeated unit of work
// and a regression in any cell moves ops_per_s, p50 and p90 alike. (Ops of one
// cell each would make p50 and p90 the cost of whichever cell sits at that
// rank: they would gate that cell and no other.)
//
// A round has to fit an op of about 10 ms — 100 ops to a block, a block to a
// second — so its cells are small: 0.1–1.5 ms each. README's "What the sim
// rounds sample" sets their simulated counters beside those of the
// `paperfigs -scale 32` cells they stand for.
type simRound []cell

func newSimRound(rng *rand.Rand, cells []cell, tiny bool) simRound {
	var round simRound
	for i, c := range cells {
		// The smoke size keeps every third cell: enough to touch every
		// kernel family on every device.
		if !tiny || i%3 == 0 {
			round = append(round, c)
		}
	}
	rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	return round
}

// paperScale is the `paperfigs -scale` whose STREAM level sizes the rounds
// borrow where they fit.
const paperScale = 32

// sim1coreRound samples the paper's Fig. 1/2/6 cross-product where it runs on
// one simulated core and so never builds sim.engine: every kernel × variant on
// the single-core MangoPi (STREAM at its L1 and its beyond-cache level), and
// the sequential cells — cores=1 STREAM, naive transpose, the three
// sequential blurs — on the multi-core devices.
func sim1coreRound(rng *rand.Rand) []cell {
	var cs []cell
	add := func(dev, spec string) { cs = append(cs, cell{dev, spec}) }
	two := func() string { return pick(rng, "COPY", "SCALE") }
	three := func() string { return pick(rng, "SUM", "TRIAD") }

	mango := machine.MangoPiD1()
	levels := stream.Levels(mango, paperScale)
	add(mango.Name, streamSpec(two(), levels[0].Elems, 1))
	add(mango.Name, streamSpec(three(), levels[0].Elems, 1))
	add(mango.Name, streamSpec(two(), levels[len(levels)-1].Elems, 1)) // DRAM level
	// The naive transpose at 128²: its column walk strides over 32 pages with
	// a 10-entry micro-TLB, the walk-heavy case of Fig. 2. The other variants
	// at 64², a matrix the size of the L1.
	add(mango.Name, transposeSpec("Naive", 128))
	for _, v := range []string{"Parallel", "Blocking", "Manual_blocking", "Dynamic"} {
		add(mango.Name, transposeSpec(v, 64))
	}
	for _, v := range []string{"Naive", "Unit-stride", "1D_kernels", "Memory", "Parallel"} {
		add(mango.Name, blurSpec(v, 32, 24))
	}
	for _, dev := range []machine.Spec{machine.VisionFive(), machine.RaspberryPi4(), machine.XeonServer()} {
		add(dev.Name, streamSpec(three(), stream.Levels(dev, paperScale)[0].Elems, 1)) // L1 level
		add(dev.Name, transposeSpec("Naive", 64))
	}
	add("VisionFive", streamSpec(two(), 4096, 1)) // two 32 KiB arrays: its L2 level
	add("VisionFive", blurSpec("Naive", 32, 24))
	add("RaspberryPi4", blurSpec("Unit-stride", 32, 24))
	add("Xeon", blurSpec("1D_kernels", 32, 24))
	return cs
}

// simMcoreRound are cells that use every core of the multi-core devices, so
// sim.engine orders their shared-path events: STREAM, the three parallel
// transposes and the parallel blur. VisionFive's two STREAM arrays are 1.5
// times its shared L2, so they stream from DRAM; RaspberryPi4's and Xeon's
// stay within their last-level caches, because their DRAM-level STREAM cells
// (stream.Levels) cost 0.14 s and 5.6 s of host time apiece — the engine
// still orders every L1 miss of theirs.
func simMcoreRound(rng *rand.Rand) []cell {
	var cs []cell
	add := func(dev, spec string) { cs = append(cs, cell{dev, spec}) }
	two := func() string { return pick(rng, "COPY", "SCALE") }
	three := func() string { return pick(rng, "SUM", "TRIAD") }

	add("VisionFive", streamSpec(two(), 12288, 2))  // DRAM level
	add("VisionFive", streamSpec(three(), 4096, 2)) // shared-L2 level
	add("RaspberryPi4", streamSpec(two(), 8192, 4))
	add("Xeon", streamSpec(three(), 2048, 10))
	for _, v := range []string{"Parallel", "Manual_blocking", "Dynamic"} {
		add("VisionFive", transposeSpec(v, 64))
	}
	add("RaspberryPi4", transposeSpec(pick(rng, "Manual_blocking", "Dynamic"), 64))
	add("Xeon", transposeSpec("Parallel", 64))
	add("VisionFive", blurSpec("Parallel", 32, 24))
	add("RaspberryPi4", blurSpec("Parallel", 32, 24))
	return cs
}
