package hier_test

import (
	"fmt"
	"slices"
	"testing"

	"riscvmem/internal/cache"
	"riscvmem/internal/dram"
	. "riscvmem/internal/hier"
	"riscvmem/internal/machine"
	"riscvmem/internal/prefetch"
	"riscvmem/internal/tlb"
)

// missAt resolves a demand access that must miss L1 the way the sim engine
// does — AccessL1, then MissRest at now — and returns the completion time
// (translation cost excluded, miss overlap not applied).
func missAt(t *testing.T, h *Hierarchy, core int, now float64, addr uint64, write bool) float64 {
	t.Helper()
	_, res := h.AccessL1(core, addr, write)
	if res.Hit {
		t.Fatalf("access to %#x hit L1; a miss was expected", addr)
	}
	return h.MissRest(core, now, addr, res)
}

// flat returns a minimal single-core hierarchy: 1 KiB L1, no L2/L3, 1-channel
// DRAM at 1 B/cycle with 100-cycle latency, no prefetcher.
func flat() Config {
	return Config{
		Cores:       1,
		LineSize:    64,
		L1:          cache.Config{Name: "L1", Size: 1 << 10, Ways: 2, LineSize: 64, Policy: cache.LRU},
		L1HitCycles: 1,
		UTLB:        tlb.Config{Name: "utlb", Entries: 4, Ways: 4, PageShift: 12},
		JTLBPenalty: 5,
		WalkLevels:  3, WalkCycles: 50,
		DRAM:        dram.Config{Name: "d", Channels: 1, BytesPerCycle: 1, LatencyCycles: 100, LineBytes: 64},
		MissOverlap: 1.0,
	}
}

// withL2 adds a shared 4 KiB L2 to flat().
func withL2(cores int) Config {
	cfg := flat()
	cfg.Cores = cores
	cfg.L2 = &Level{
		Cache:     cache.Config{Name: "L2", Size: 4 << 10, Ways: 4, LineSize: 64, Policy: cache.LRU},
		HitCycles: 10,
		Shared:    true,
	}
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := flat().Validate(); err != nil {
		t.Fatalf("flat config invalid: %v", err)
	}
	bad := flat()
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("zero cores accepted")
	}
	bad = flat()
	bad.MissOverlap = 0
	if bad.Validate() == nil {
		t.Error("zero overlap accepted")
	}
	bad = flat()
	bad.MissOverlap = 1.5
	if bad.Validate() == nil {
		t.Error("overlap > 1 accepted")
	}
	bad = flat()
	bad.DRAM.LineBytes = 128
	if bad.Validate() == nil {
		t.Error("mismatched DRAM line accepted")
	}
	bad = flat()
	bad.L3 = &Level{Cache: cache.Config{Name: "L3", Size: 4 << 10, Ways: 4, LineSize: 64}, HitCycles: 1}
	if bad.Validate() == nil {
		t.Error("L3 without L2 accepted")
	}
	bad = withL2(1)
	bad.L2.Cache.LineSize = 128
	if bad.Validate() == nil {
		t.Error("mismatched L2 line accepted")
	}
}

func TestTranslateCosts(t *testing.T) {
	cfg := flat()
	cfg.JTLB = &tlb.Config{Name: "jtlb", Entries: 16, Ways: 2, PageShift: 12}
	h := MustNew(cfg)
	// Cold page: uTLB miss, jTLB miss → penalty + 3×50 walk.
	translate := func(addr uint64) float64 {
		cycles, _ := h.AccessL1(0, addr, false)
		return cycles
	}
	if got := translate(0x1000); got != 5+150 {
		t.Fatalf("cold translate = %v, want 155", got)
	}
	// Warm page: free.
	if got := translate(0x1008); got != 0 {
		t.Fatalf("warm translate = %v, want 0", got)
	}
	// Evict from the 4-entry uTLB but not the 16-entry jTLB: penalty only.
	for p := uint64(2); p < 7; p++ {
		translate(p << 12)
	}
	if got := translate(0x1000); got != 5 {
		t.Fatalf("jTLB-hit translate = %v, want 5", got)
	}
	if _, walks := h.TLBStats(0); walks == 0 {
		t.Fatal("no walks recorded")
	}
}

func TestL1HitAndTouch(t *testing.T) {
	h := MustNew(flat())
	_, res := h.AccessL1(0, 0, false)
	if res.Hit {
		t.Fatal("cold L1 hit")
	}
	h.MissRest(0, 0, 0, res)
	// The line is installed: the next access hits and costs only its issue.
	if got := h.Access(0, 200, 0, false, 1); got != 201 {
		t.Fatalf("L1-hit access done = %v, want 201", got)
	}
	if st := h.L1Stats(0); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("L1 stats = %+v", st)
	}
}

func TestMissPathNoL2GoesToDRAM(t *testing.T) {
	h := MustNew(flat())
	done := missAt(t, h, 0, 0, 0, false)
	// DRAM: 100 latency + 64 transfer, plus 1 cycle L1 fill cost.
	if done != 165 {
		t.Fatalf("miss done = %v, want 165", done)
	}
	if h.DRAM().Stats.Reads != 1 {
		t.Fatalf("DRAM reads = %d, want 1", h.DRAM().Stats.Reads)
	}
}

func TestMissPathL2Hit(t *testing.T) {
	h := MustNew(withL2(1))
	missAt(t, h, 0, 0, 0, false) // install into L1 and L2
	// Evict line 0 from L1 by filling its set (1 KiB, 2-way, 8 sets:
	// same set every 512 bytes).
	missAt(t, h, 0, 1000, 512, false)
	missAt(t, h, 0, 2000, 1024, false)
	reads := h.DRAM().Stats.Reads
	_, res := h.AccessL1(0, 0, false)
	if res.Hit {
		t.Fatal("line 0 still in L1; conflict eviction expected")
	}
	done := h.MissRest(0, 3000, 0, res)
	// L2 hit: 10 cycles + 1 L1 fill = 11 beyond `now`.
	if done != 3011 {
		t.Fatalf("L2-hit miss done = %v, want 3011", done)
	}
	if h.DRAM().Stats.Reads != reads {
		t.Fatal("L2 hit went to DRAM")
	}
}

func TestDirtyEvictionPostsWriteback(t *testing.T) {
	h := MustNew(flat())
	missAt(t, h, 0, 0, 0, true) // dirty line 0 in set 0
	missAt(t, h, 0, 1000, 512, false)
	missAt(t, h, 0, 2000, 1024, false) // evicts one of the set-0 lines
	if h.DRAM().Stats.Writes == 0 {
		t.Fatal("dirty eviction produced no DRAM write")
	}
}

func TestPrefetchShortensDemandMiss(t *testing.T) {
	cfg := flat()
	cfg.NewPrefetcher = func() prefetch.Prefetcher {
		return prefetch.NewStride(prefetch.StrideConfig{
			LineSize: 64, TrainThreshold: 2, InitDistance: 4, MaxDistance: 4})
	}
	pf := MustNew(cfg)
	base := MustNew(flat())

	walk := func(h *Hierarchy) float64 {
		now := 0.0
		for i := 0; i < 64; i++ {
			addr := uint64(i) * 64
			now = missAt(t, h, 0, now+1, addr, false)
		}
		return now
	}
	tPF, tBase := walk(pf), walk(base)
	if tPF >= tBase {
		t.Fatalf("prefetch did not help: %v >= %v", tPF, tBase)
	}
	if pf.PrefetchFills == 0 {
		t.Fatal("no prefetch fills recorded")
	}
}

func TestPrefetchConsumesChannelTime(t *testing.T) {
	cfg := flat()
	cfg.DRAM.BytesPerCycle = 0.1 // starved channel, VisionFive-style
	cfg.NewPrefetcher = func() prefetch.Prefetcher {
		return prefetch.NewStride(prefetch.StrideConfig{
			LineSize: 64, TrainThreshold: 1, InitDistance: 8, MaxDistance: 8})
	}
	pf := MustNew(cfg)
	noPF := cfg
	noPF.NewPrefetcher = nil
	base := MustNew(noPF)

	// A stride-2-line stream: the prefetcher fetches useless intermediate
	// bandwidth... actually it fetches the right lines but far ahead,
	// concentrating queueing. Compare a *short* burst where overshoot
	// fills the queue: 8 demanded lines, prefetcher speculates 8 more.
	walk := func(h *Hierarchy) float64 {
		now := 0.0
		for i := 0; i < 8; i++ {
			now = h.Access(0, now, uint64(i)*64, false, 1)
		}
		// One extra access off-stream measures queue pollution.
		return h.Access(0, now, 1<<20, false, 1)
	}
	tPF, tBase := walk(pf), walk(base)
	if tPF <= tBase {
		t.Fatalf("starved channel: prefetch overshoot should delay the off-stream access (%v <= %v)", tPF, tBase)
	}
}

func TestSharedVsPrivateL2(t *testing.T) {
	shared := withL2(2)
	h := MustNew(shared)
	// Core 0 fills a line; core 1 must hit the *shared* L2.
	missAt(t, h, 0, 0, 0, false)
	reads := h.DRAM().Stats.Reads
	missAt(t, h, 1, 1000, 0, false)
	if h.DRAM().Stats.Reads != reads {
		t.Error("shared L2 did not serve core 1")
	}

	priv := withL2(2)
	priv.L2.Shared = false
	h2 := MustNew(priv)
	missAt(t, h2, 0, 0, 0, false)
	reads = h2.DRAM().Stats.Reads
	missAt(t, h2, 1, 1000, 0, false)
	if h2.DRAM().Stats.Reads == reads {
		t.Error("private L2 served the other core")
	}
}

func TestL3Path(t *testing.T) {
	cfg := withL2(1)
	cfg.L3 = &Level{
		Cache:     cache.Config{Name: "L3", Size: 16 << 10, Ways: 4, LineSize: 64, Policy: cache.LRU},
		HitCycles: 20,
		Shared:    true,
	}
	h := MustNew(cfg)
	done := missAt(t, h, 0, 0, 0, false)
	// DRAM (164) + L2 (10) + L3 (20) + L1 fill (1) = 195.
	if done != 195 {
		t.Fatalf("cold L3-path miss = %v, want 195", done)
	}
}

func TestReset(t *testing.T) {
	h := MustNew(withL2(2))
	missAt(t, h, 0, 0, 0, true)
	h.Reset()
	if h.DRAM().Stats.Reads != 0 {
		t.Error("DRAM stats survived reset")
	}
	if st := h.L1Stats(0); st.Accesses() != 0 {
		t.Error("L1 stats survived reset")
	}
	if ts, walks := h.TLBStats(0); ts.Accesses() != 0 || walks != 0 {
		t.Error("TLB stats survived reset")
	}
	if h.PrefetchFills != 0 {
		t.Error("prefetch fill count survived reset")
	}
	if cycles, res := h.AccessL1(0, 0, false); res.Hit || cycles == 0 {
		t.Errorf("L1 or TLB content survived reset: hit=%v, translation %v cycles", res.Hit, cycles)
	}
}

func TestMissOverlapAccessor(t *testing.T) {
	cfg := flat()
	cfg.MissOverlap = 0.25
	if got := MustNew(cfg).MissOverlap(); got != 0.25 {
		t.Fatalf("MissOverlap() = %v", got)
	}
}

// enterLog is a recording Order.
type enterLog []enterEvent

type enterEvent struct {
	core int
	now  float64
}

func (l *enterLog) Enter(core int, now float64) { *l = append(*l, enterEvent{core, now}) }

// TestAccessLinesEquivalence pins the AccessLines shim against the two
// per-access routes into the one miss path, on the component configurations
// and all four presets, reads and writes, across page boundaries: without an
// Order, the per-line Access loop; with one, the AccessL1 + MissRest split,
// with Enter called exactly once per L1 miss at the time the split path
// would call it. Times, post charges and every statistic must match.
func TestAccessLinesEquivalence(t *testing.T) {
	withPref := flat()
	withPref.Prefetch = &prefetch.StrideConfig{LineSize: 64, Streams: 4,
		TrainThreshold: 2, InitDistance: 2, MaxDistance: 8}
	cfgs := map[string]Config{"flat": flat(), "pref": withPref, "l2": withL2(1)}
	for _, spec := range machine.All() {
		cfgs[spec.Name] = spec.Mem
	}
	const perLine, nLines = 8, 400 // > 6 pages
	const issue = 1.0
	post := []float64{0.25, 0.5}
	// elements charges a line's element costs after its first access.
	elements := func(now float64) float64 {
		for e := 0; e < perLine; e++ {
			if e > 0 {
				now += issue
			}
			for _, p := range post {
				now += p
			}
		}
		return now
	}
	for name, cfg := range cfgs {
		core := cfg.Cores - 1
		for _, write := range []bool{false, true} {
			for _, ordered := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/write=%v/ordered=%v", name, write, ordered), func(t *testing.T) {
					ref, got := MustNew(cfg), MustNew(cfg)
					var refLog, gotLog enterLog
					refNow := 0.0
					for i := uint64(0); i < nLines; i++ {
						addr := 4096 + i*64
						if !ordered {
							refNow = ref.Access(core, refNow, addr, write, issue)
						} else {
							tlbCycles, res := ref.AccessL1(core, addr, write)
							refNow += tlbCycles
							if res.Hit {
								refNow += issue
							} else {
								refLog.Enter(core, refNow)
								done := ref.MissRest(core, refNow, addr, res)
								refNow += (done - refNow) * cfg.MissOverlap
							}
						}
						refNow = elements(refNow)
					}
					var ord Order
					if ordered {
						ord = &gotLog
					}
					gotNow := got.AccessLines(core, 0, 4096, nLines, perLine, write, issue, post, ord)

					if gotNow != refNow {
						t.Errorf("time diverges: got %v want %v", gotNow, refNow)
					}
					if ordered {
						if misses := got.L1Stats(core).Misses; uint64(len(gotLog)) != misses {
							t.Errorf("%d Enter calls for %d L1 misses", len(gotLog), misses)
						}
						if !slices.Equal(gotLog, refLog) {
							t.Errorf("Enter calls diverge from the split path's:\n got %v\nwant %v", gotLog, refLog)
						}
					}
					if g, r := got.L1Stats(core), ref.L1Stats(core); g != r {
						t.Errorf("L1 stats diverge: got %+v want %+v", g, r)
					}
					if g, r := got.L2StatsTotal(), ref.L2StatsTotal(); g != r {
						t.Errorf("L2 stats diverge: got %+v want %+v", g, r)
					}
					if g, r := got.L3StatsTotal(), ref.L3StatsTotal(); g != r {
						t.Errorf("L3 stats diverge: got %+v want %+v", g, r)
					}
					gt, gw := got.TLBStats(core)
					rt, rw := ref.TLBStats(core)
					if gt != rt || gw != rw {
						t.Errorf("TLB stats diverge: got %+v/%d want %+v/%d", gt, gw, rt, rw)
					}
					if got.DRAM().Stats != ref.DRAM().Stats {
						t.Errorf("DRAM stats diverge: got %+v want %+v", got.DRAM().Stats, ref.DRAM().Stats)
					}
					if got.PrefetchFills != ref.PrefetchFills {
						t.Errorf("prefetch fills diverge: got %d want %d", got.PrefetchFills, ref.PrefetchFills)
					}
				})
			}
		}
	}
}
