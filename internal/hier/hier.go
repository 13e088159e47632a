// Package hier composes the cache, TLB, prefetch and DRAM models into a full
// per-core memory hierarchy with shared outer levels.
//
// The hierarchy is the timing heart of the simulator. Every kernel load or
// store resolves here into a cycle count, via two entry points split so the
// event engine (internal/sim) orders only the operations that touch shared
// state and private-state operations never cause a core switch:
//
//   - AccessL1: the fused private path — TLB lookup (uTLB → L2 TLB → page
//     walk) plus a single L1 tag walk that detects a hit and applies its
//     recency/dirty update, or counts the miss and installs the line, in
//     one pass.
//   - MissRest: everything past a private L1 miss — in-flight prefetch
//     matching, shared L2/L3 lookups, DRAM queueing, write-back traffic and
//     prefetch training/issue. Calls must be globally ordered by time across
//     cores; the sim engine guarantees that.
//
// Access combines both for single-call use in single-core regions. Both
// routes end in the one miss path, missRestLine.
//
// Inclusive caches, write-back + write-allocate everywhere, posted (non-
// blocking) write-backs, and demand fills that lazily install prefetched
// lines match the first-order behaviour of the paper's devices.
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//
//simlint:deterministic
package hier

import (
	"fmt"

	"riscvmem/internal/cache"
	"riscvmem/internal/dram"
	"riscvmem/internal/prefetch"
	"riscvmem/internal/tlb"
)

// Level describes one cache level beyond L1.
type Level struct {
	Cache     cache.Config
	HitCycles float64 // access latency when this level serves the request
	Shared    bool    // one instance for the whole machine vs per core
}

// Config assembles a device's memory system.
type Config struct {
	Cores    int
	LineSize int64

	L1          cache.Config
	L1HitCycles float64 // per-access cost of an L1 hit (pipelined throughput)

	L2 *Level // optional
	L3 *Level // optional

	UTLB        tlb.Config
	JTLB        *tlb.Config // optional second-level TLB
	JTLBPenalty float64     // added cycles on uTLB miss / JTLB hit
	WalkLevels  int         // page-table depth (3 for Sv39)
	WalkCycles  float64     // per-level cost of a page walk

	DRAM dram.Config

	// MissOverlap scales the exposed latency of the shared-path portion of a
	// miss; 1.0 models a stalling in-order core, smaller values model the
	// miss-level parallelism of out-of-order cores.
	MissOverlap float64

	// Prefetch configures one stride prefetcher per core; nil disables
	// prefetching.
	Prefetch *prefetch.StrideConfig

	// MaxInflight caps concurrent outstanding fills per core (the MSHR
	// count). It bounds single-core memory-level parallelism: effective
	// streaming bandwidth ≈ MaxInflight × line / latency. 0 defaults to 8.
	MaxInflight int
}

// Validate checks the composition.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("hier: cores must be positive")
	}
	if c.MissOverlap <= 0 || c.MissOverlap > 1 {
		return fmt.Errorf("hier: miss overlap %v outside (0,1]", c.MissOverlap)
	}
	if c.LineSize < 4 {
		// The simulator packs valid/dirty flags into the low bits of
		// line-aligned addresses; real lines are far larger anyway.
		return fmt.Errorf("hier: line size %d below minimum 4", c.LineSize)
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if c.L1.LineSize != c.LineSize {
		return fmt.Errorf("hier: L1 line size %d != hierarchy line size %d", c.L1.LineSize, c.LineSize)
	}
	for _, lv := range []*Level{c.L2, c.L3} {
		if lv == nil {
			continue
		}
		if err := lv.Cache.Validate(); err != nil {
			return err
		}
		if lv.Cache.LineSize != c.LineSize {
			return fmt.Errorf("hier: %s line size mismatch", lv.Cache.Name)
		}
	}
	if c.L3 != nil && c.L2 == nil {
		return fmt.Errorf("hier: L3 configured without L2")
	}
	if err := c.UTLB.Validate(); err != nil {
		return err
	}
	if c.JTLB != nil {
		if err := c.JTLB.Validate(); err != nil {
			return err
		}
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if c.DRAM.LineBytes != c.LineSize {
		return fmt.Errorf("hier: DRAM line bytes %d != line size %d", c.DRAM.LineBytes, c.LineSize)
	}
	return nil
}

// fill is one outstanding (MSHR-tracked) line fill. paddr caches the
// scattered physical line address (a pure function of line) so retirement
// does not recompute it.
type fill struct {
	line  uint64
	paddr uint64
	ready float64
}

// physMemoEntries sizes the per-core direct-mapped VPN→PPN memo; a power of
// two. The memo caches the splitmix64 page scatter (see physPage), which is a
// pure function of the VPN — memoization is exact, never invalidated. It is
// deliberately small: page-grain reuse means a handful of hot pages cover a
// kernel's inner loops, and a compact table stays resident in the host L1.
const physMemoEntries = 64

type physEntry struct {
	key uint64 // vpn + 1; 0 means empty
	ppn uint64 // scattered physical page address (offset bits zero)
}

type coreState struct {
	l1     *cache.Cache
	utlb   *tlb.TLB
	jtlb   *tlb.TLB // nil when absent
	walker tlb.Walker
	pref   *prefetch.Stride // nil when absent
	// inflight is the MSHR file: outstanding prefetch fills in issue order,
	// held in a small power-of-two ring (bounded by MaxInflight) so the
	// common head operations — matching the oldest fill, retiring ready
	// fills — are O(1) with no compaction. Insertion order keeps retirement
	// deterministic.
	inflight []fill
	infHead  int
	infLen   int
	buf      []uint64 // scratch for prefetch candidates
	// physMemo is per-core (not per-hierarchy) so the access hot path stays
	// free of cross-core sharing; each core's goroutine touches only its own
	// table.
	physMemo [physMemoEntries]physEntry
}

// infAt returns the k-th oldest in-flight fill (0 = head).
func (st *coreState) infAt(k int) *fill {
	return &st.inflight[(st.infHead+k)&(len(st.inflight)-1)]
}

// infPush appends a fill at the tail. The ring is sized to MaxInflight, and
// callers never exceed it.
func (st *coreState) infPush(f fill) {
	*st.infAt(st.infLen) = f
	st.infLen++
}

// infRemove deletes the k-th oldest fill, preserving the order of the rest.
func (st *coreState) infRemove(k int) {
	if k == 0 {
		st.infHead = (st.infHead + 1) & (len(st.inflight) - 1)
		st.infLen--
		return
	}
	for j := k; j < st.infLen-1; j++ {
		*st.infAt(j) = *st.infAt(j + 1)
	}
	st.infLen--
}

// physFor maps a virtual address to its physical address through the
// memoized physPage: one table probe replaces the three-multiply mixer for
// every hot page.
func (st *coreState) physFor(addr uint64) uint64 {
	vpn := addr >> 12
	e := &st.physMemo[vpn&(physMemoEntries-1)]
	if e.key != vpn+1 {
		e.key, e.ppn = vpn+1, physPage(vpn)
	}
	return e.ppn | addr&4095
}

// Hierarchy is the runtime state for one machine.
type Hierarchy struct {
	cfg         Config
	lineMask    uint64 // LineSize-1; line rounding is addr &^ lineMask
	lineShift   uint   // log2(LineSize)
	maxInflight int    // resolved MSHR count (cfg.MaxInflight, default 8)
	// monoFills: on a single-channel device with no L2/L3, every fill is a
	// same-size DRAM request through one FIFO queue, so completion times
	// are monotonic in issue order — if the oldest in-flight fill is not
	// ready, none are.
	monoFills bool
	dramM     *dram.Model
	l2        []*cache.Cache // len 1 when shared, else len Cores
	l3        []*cache.Cache
	per       []coreState

	// PrefetchFills counts lines actually fetched by prefetchers (after
	// residency filtering); used by the ablation benchmarks.
	PrefetchFills uint64
}

// New builds a hierarchy.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg, lineMask: uint64(cfg.LineSize - 1), dramM: dram.MustNew(cfg.DRAM)}
	for s := cfg.LineSize; s > 1; s >>= 1 {
		h.lineShift++
	}
	h.maxInflight = cfg.MaxInflight
	if h.maxInflight <= 0 {
		h.maxInflight = 8
	}
	h.monoFills = cfg.DRAM.Channels == 1 && cfg.L2 == nil
	ringCap := 1
	for ringCap < h.maxInflight {
		ringCap <<= 1
	}
	mkLevel := func(lv *Level) []*cache.Cache {
		if lv == nil {
			return nil
		}
		n := cfg.Cores
		if lv.Shared {
			n = 1
		}
		cs := make([]*cache.Cache, n)
		for i := range cs {
			c := lv.Cache
			c.Seed += uint64(i) // decorrelate random replacement across cores
			cs[i] = cache.MustNew(c)
		}
		return cs
	}
	h.l2 = mkLevel(cfg.L2)
	h.l3 = mkLevel(cfg.L3)
	h.per = make([]coreState, cfg.Cores)
	for i := range h.per {
		l1 := cfg.L1
		l1.Seed += uint64(i)
		st := coreState{
			l1:       cache.MustNew(l1),
			utlb:     tlb.MustNew(cfg.UTLB),
			walker:   tlb.Walker{Levels: cfg.WalkLevels, CyclesPerLevel: cfg.WalkCycles},
			inflight: make([]fill, ringCap),
		}
		if cfg.JTLB != nil {
			st.jtlb = tlb.MustNew(*cfg.JTLB)
		}
		if cfg.Prefetch != nil {
			st.pref = prefetch.NewStride(*cfg.Prefetch)
		}
		h.per[i] = st
	}
	return h, nil
}

// MustNew is New but panics on error; used by validated device presets.
func MustNew(cfg Config) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// DRAM exposes the memory model (for bandwidth statistics).
func (h *Hierarchy) DRAM() *dram.Model { return h.dramM }

// L1Stats returns the L1 statistics of one core.
func (h *Hierarchy) L1Stats(core int) cache.Stats { return h.per[core].l1.Stats }

// TLBStats returns (uTLB stats, walk count) of one core.
func (h *Hierarchy) TLBStats(core int) (tlb.Stats, uint64) {
	return h.per[core].utlb.Stats(), h.per[core].walker.Walks
}

// L2StatsTotal sums the statistics of every L2 instance (one when shared,
// per-core otherwise); the zero Stats when the device has no L2.
func (h *Hierarchy) L2StatsTotal() cache.Stats { return sumStats(h.l2) }

// L3StatsTotal sums the statistics of every L3 instance; the zero Stats
// when the device has no L3.
func (h *Hierarchy) L3StatsTotal() cache.Stats { return sumStats(h.l3) }

func sumStats(cs []*cache.Cache) cache.Stats {
	var total cache.Stats
	for _, c := range cs {
		total.Hits += c.Stats.Hits
		total.Misses += c.Stats.Misses
		total.Writebacks += c.Stats.Writebacks
		total.Installs += c.Stats.Installs
	}
	return total
}

func (h *Hierarchy) l2For(core int) *cache.Cache {
	if h.l2 == nil {
		return nil
	}
	if len(h.l2) == 1 {
		return h.l2[0]
	}
	return h.l2[core]
}

func (h *Hierarchy) l3For(core int) *cache.Cache {
	if h.l3 == nil {
		return nil
	}
	if len(h.l3) == 1 {
		return h.l3[0]
	}
	return h.l3[core]
}

// physPage maps a virtual page number to the simulated physical page
// address used for cache set indexing and DRAM channel interleave. Pages are
// scattered by a bijective 64-bit mixer (the splitmix64 finalizer),
// modelling the OS's arbitrary physical page allocation behind
// physically-indexed caches — without it, power-of-two row strides (the
// 8192² matrix!) alias into a handful of sets, a pathology real systems
// don't exhibit. Offsets within a page are preserved (see physFor); TLBs and
// prefetch training stay virtual.
func physPage(vpn uint64) uint64 {
	z := vpn + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z << 12
}

// translate charges the TLB path for a data access and returns its cycle
// cost. All state touched is private to the core.
func (h *Hierarchy) translate(st *coreState, addr uint64) float64 {
	if st.utlb.Lookup(addr) {
		return 0
	}
	return h.translateMiss(st, addr)
}

// translateMiss is the uTLB-miss path: second-level TLB, then a page walk.
func (h *Hierarchy) translateMiss(st *coreState, addr uint64) float64 {
	if st.jtlb != nil && st.jtlb.Lookup(addr) {
		st.utlb.Insert(addr)
		return h.cfg.JTLBPenalty
	}
	cost := h.cfg.JTLBPenalty + st.walker.Walk()
	st.utlb.Insert(addr)
	if st.jtlb != nil {
		st.jtlb.Insert(addr)
	}
	return cost
}

// AccessL1 performs the private, per-core portion of one data access in a
// single pass: the TLB path plus one fused L1 tag walk that either applies
// the hit-path update or counts the demand miss and installs the line
// (reporting the victim in res): exactly one TLB lookup and one cache
// lookup. On a miss the caller must complete the access with MissRest.
func (h *Hierarchy) AccessL1(core int, addr uint64, write bool) (tlbCycles float64, res cache.Result) {
	st := &h.per[core]
	tlbCycles = h.translate(st, addr)
	res = st.l1.Access(st.physFor(addr), write)
	return tlbCycles, res
}

// MissRest completes an L1 miss whose fused lookup (AccessL1) already
// counted the miss and installed the line: it posts the victim's write-back,
// trains the prefetcher, matches in-flight fills and walks the shared
// levels, returning the completion time (before miss-overlap scaling, which
// the caller applies so that it can also model vectorized access streams).
// This is the only part of an access that touches globally shared state;
// multi-core callers must invoke it in non-decreasing global time order.
func (h *Hierarchy) MissRest(core int, now float64, addr uint64, res cache.Result) float64 {
	return h.missRestLine(&h.per[core], core, now, addr&^h.lineMask, res)
}

// missRestLine is the one miss path, for an already line-aligned address.
func (h *Hierarchy) missRestLine(st *coreState, core int, now float64, line uint64, res cache.Result) float64 {
	// The victim's write-back is posted down the hierarchy.
	if res.EvictedValid && res.EvictedDirty {
		h.postWriteback(core, now, res.Evicted)
	}

	// Train the prefetcher on the demand-miss stream and issue fills.
	// issuePrefetch's common early exits (candidate already in flight /
	// already resident) are open-coded here: the miss path is the
	// simulator's hottest loop and the call frames are measurable.
	if st.pref != nil {
		st.buf = st.pref.Observe(line, st.buf[:0])
	cands:
		for _, cand := range st.buf {
			pline := cand &^ h.lineMask
			for k := st.infLen - 1; k >= 0; k-- {
				if st.infAt(k).line == pline {
					continue cands
				}
			}
			paddr := st.physFor(pline)
			if st.l1.Probe(paddr) {
				continue
			}
			h.startFill(st, core, now, pline, paddr)
		}
	}

	// A fill already in flight (from a prefetch) satisfies the miss at its
	// ready time. Streams demand lines in the order they were prefetched,
	// so the match is usually the head of the MSHR ring.
	for k := 0; k < st.infLen; k++ {
		f := st.infAt(k)
		if f.line != line {
			continue
		}
		done := f.ready
		st.infRemove(k)
		if now > done {
			done = now
		}
		return done + h.cfg.L1HitCycles
	}

	return h.fill(core, now, st.physFor(line)) + h.cfg.L1HitCycles
}

// Access resolves one data access end-to-end at simulated time now and
// returns the core's new simulated time: translation, the fused L1 lookup
// (plus issue, the caller's per-element L1-hit cost) on a hit, or the full
// shared path scaled by the device's miss-overlap factor on a miss. It is
// the single-call entry point for callers that do not need to interleave a
// cross-core event ordering between the private and shared portions
// (single-core regions — most of the paper's kernels); the sim engine uses
// AccessL1 + MissRest directly so it can serialize only the shared half.
func (h *Hierarchy) Access(core int, now float64, addr uint64, write bool, issue float64) float64 {
	st := &h.per[core]
	if !st.utlb.Lookup(addr) { // uTLB hits cost nothing; misses take the slow path
		now += h.translateMiss(st, addr)
	}
	res := st.l1.Access(st.physFor(addr), write)
	if res.Hit {
		return now + issue
	}
	done := h.missRestLine(st, core, now, addr&^h.lineMask, res)
	return now + (done-now)*h.cfg.MissOverlap
}

// Order serializes globally-shared sections (the miss path past L1) across
// the cores of a multi-core region. The sim engine implements it: Enter
// returns when the core's event at now is the earliest pending one, and the
// core then owns the shared state until its next Enter.
type Order interface {
	Enter(core int, now float64)
}

// AccessLines charges nLines consecutive lines starting at the line
// containing addr: per line the AccessL1 + MissRest split path (with
// ord.Enter before a miss when ord is non-nil), which is exactly what
// Access does, then the line's remaining perLine-1 element issue charges,
// each element followed by the post charges.
// Its only caller is bench/ladder.go's hier.line_ns rung; it goes when a
// benchmark PR retires that rung.
func (h *Hierarchy) AccessLines(core int, now float64, addr uint64, nLines, perLine int, write bool, issue float64, post []float64, ord Order) float64 {
	addr &^= h.lineMask
	for ; nLines > 0; nLines-- {
		tlbCycles, res := h.AccessL1(core, addr, write)
		now += tlbCycles
		if res.Hit {
			now += issue
		} else {
			if ord != nil {
				ord.Enter(core, now)
			}
			done := h.MissRest(core, now, addr, res)
			now += (done - now) * h.cfg.MissOverlap
		}
		for e := 0; e < perLine; e++ {
			if e > 0 {
				now += issue
			}
			for _, p := range post {
				now += p
			}
		}
		addr += h.lineMask + 1
	}
	return now
}

// fill walks L2 → L3 → DRAM for the given *physical* line, installing it at
// each level, and returns the time the line arrives at L1.
func (h *Hierarchy) fill(core int, now float64, line uint64) float64 {
	if l2 := h.l2For(core); l2 != nil {
		r := l2.Access(line, false)
		if r.Hit {
			return now + h.cfg.L2.HitCycles
		}
		if r.EvictedValid && r.EvictedDirty {
			h.dramM.Posted(now, r.Evicted, h.cfg.LineSize, true)
		}
		if l3 := h.l3For(core); l3 != nil {
			r3 := l3.Access(line, false)
			if r3.Hit {
				return now + h.cfg.L2.HitCycles + h.cfg.L3.HitCycles
			}
			if r3.EvictedValid && r3.EvictedDirty {
				h.dramM.Posted(now, r3.Evicted, h.cfg.LineSize, true)
			}
			return h.dramM.Request(now, line, h.cfg.LineSize, false) + h.cfg.L2.HitCycles + h.cfg.L3.HitCycles
		}
		return h.dramM.Request(now, line, h.cfg.LineSize, false) + h.cfg.L2.HitCycles
	}
	return h.dramM.Request(now, line, h.cfg.LineSize, false)
}

// startFill claims an MSHR for a prefetch (retiring landed fills if the
// file is full — or dropping the prefetch when none free up) and starts the
// fill. Prefetch fills consume real channel time — on a bandwidth-starved
// device they can crowd out demand traffic, which is exactly the VisionFive
// behaviour in the paper's Fig. 6 discussion.
func (h *Hierarchy) startFill(st *coreState, core int, now float64, line, paddr uint64) {
	if st.infLen >= h.maxInflight {
		// Retire fills that have landed — they install into L1 (in issue
		// order, which is deterministic) and free their MSHR. If all slots
		// are still busy, the prefetch is dropped. Fills complete in issue
		// order on a single-channel device, so ready fills are usually a
		// prefix of the ring: pop the head cheaply, then sweep the rest.
		for st.infLen > 0 && st.infAt(0).ready <= now {
			h.installRetired(st, core, now, st.infAt(0).paddr)
			st.infHead = (st.infHead + 1) & (len(st.inflight) - 1)
			st.infLen--
		}
		if !h.monoFills {
			// Multi-channel (or cached) fills can complete out of issue
			// order: sweep past the unready head too.
			w := 0
			for k := 0; k < st.infLen; k++ {
				f := *st.infAt(k)
				if f.ready <= now {
					h.installRetired(st, core, now, f.paddr)
					continue
				}
				if w != k {
					*st.infAt(w) = f
				}
				w++
			}
			st.infLen = w
		}
		if st.infLen >= h.maxInflight {
			return
		}
	}
	st.infPush(fill{line: line, paddr: paddr, ready: h.fill(core, now, paddr)})
	h.PrefetchFills++
}

// installRetired lands a completed prefetch fill in L1, posting any dirty
// victim's write-back.
func (h *Hierarchy) installRetired(st *coreState, core int, now float64, paddr uint64) {
	if r := st.l1.Install(paddr, false); r.EvictedValid && r.EvictedDirty {
		h.postWriteback(core, now, r.Evicted)
	}
}

// postWriteback sends a dirty L1 victim down to the next level without
// blocking the core.
func (h *Hierarchy) postWriteback(core int, now float64, victim uint64) {
	if l2 := h.l2For(core); l2 != nil {
		r := l2.Install(victim, true)
		if r.EvictedValid && r.EvictedDirty {
			h.dramM.Posted(now, r.Evicted, h.cfg.LineSize, true)
		}
		return
	}
	h.dramM.Posted(now, victim, h.cfg.LineSize, true)
}

// Reset restores all structural state (caches, TLBs, prefetchers, DRAM
// queues) and statistics to power-on.
func (h *Hierarchy) Reset() {
	h.dramM.Reset()
	for _, cs := range [][]*cache.Cache{h.l2, h.l3} {
		for _, c := range cs {
			c.Reset()
		}
	}
	for i := range h.per {
		st := &h.per[i]
		st.l1.Reset()
		st.utlb.Reset()
		if st.jtlb != nil {
			st.jtlb.Reset()
		}
		st.walker.Walks = 0
		if st.pref != nil {
			st.pref.Reset()
		}
		st.infHead, st.infLen = 0, 0
	}
	h.PrefetchFills = 0
}
