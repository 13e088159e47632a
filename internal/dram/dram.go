// Package dram models main memory as a set of independently queued channels.
//
// The model is deliberately first-order: each channel serves line-sized
// transfers at a fixed service rate (bytes per core cycle) after a fixed
// access latency, and requests queue FIFO per channel. Lines interleave
// across channels by address. This is enough to reproduce the paper's three
// DRAM-side observations: STREAM bandwidth differences between devices
// (Fig. 1), parallel speedup saturating at the channel count (§4.3 "speedup
// is limited by the number of available memory channels"), and prefetch
// traffic crowding out demand traffic on the bandwidth-starved VisionFive
// (Fig. 6, "Unit-stride" discussion).
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//
//simlint:deterministic
package dram

import (
	"fmt"

	"riscvmem/internal/units"
)

// Config describes a device's DRAM subsystem.
type Config struct {
	Name string
	// Channels is the number of independent channels; lines interleave
	// across them by line address.
	Channels int
	// BytesPerCycle is the per-channel service rate in bytes per core cycle.
	// (Aggregate peak bandwidth = Channels × BytesPerCycle × core frequency.)
	BytesPerCycle float64
	// LatencyCycles is the fixed access latency added to every request in
	// front of the transfer itself.
	LatencyCycles float64
	// LineBytes is the transfer granule (cache line size).
	LineBytes int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Channels <= 0 {
		return fmt.Errorf("dram %s: channels must be positive", c.Name)
	}
	if c.BytesPerCycle <= 0 {
		return fmt.Errorf("dram %s: bytes/cycle must be positive", c.Name)
	}
	if c.LatencyCycles < 0 {
		return fmt.Errorf("dram %s: negative latency", c.Name)
	}
	if c.LineBytes <= 0 || !units.IsPow2(c.LineBytes) {
		return fmt.Errorf("dram %s: line bytes %d must be a positive power of two", c.Name, c.LineBytes)
	}
	return nil
}

// PeakBandwidth returns the aggregate peak in bytes/second at freqGHz.
func (c Config) PeakBandwidth(freqGHz float64) units.BytesPerSec {
	return units.BytesPerSec(float64(c.Channels) * c.BytesPerCycle * freqGHz * 1e9)
}

// Stats aggregates traffic counters.
type Stats struct {
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
	// QueueCycles is total time requests spent waiting behind earlier
	// requests on their channel.
	QueueCycles float64
}

// Bytes returns total bytes moved in either direction.
func (s Stats) Bytes() uint64 { return s.BytesRead + s.BytesWritten }

// Model is the runtime state: one next-free timestamp per channel.
type Model struct {
	cfg      Config
	nextFree []float64
	lineMask uint64
	shift    uint
	// chanMask is Channels-1 when the channel count is a power of two
	// (interleave by mask instead of modulo), else -1.
	chanMask int64
	// lineXfer caches LineBytes/BytesPerCycle — the transfer time of the
	// line-sized requests that make up all real traffic.
	lineXfer float64
	Stats    Stats
}

// New builds a DRAM model.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	chanMask := int64(-1)
	if units.IsPow2(int64(cfg.Channels)) {
		chanMask = int64(cfg.Channels - 1)
	}
	return &Model{
		cfg:      cfg,
		nextFree: make([]float64, cfg.Channels),
		shift:    units.Log2(cfg.LineBytes),
		chanMask: chanMask,
		lineXfer: float64(cfg.LineBytes) / cfg.BytesPerCycle,
	}, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func (m *Model) channel(addr uint64) int {
	if m.chanMask >= 0 {
		return int((addr >> m.shift) & uint64(m.chanMask))
	}
	return int((addr >> m.shift) % uint64(m.cfg.Channels))
}

// serve is the timing core shared by Request and LineRead: channel pick,
// FIFO queueing (QueueCycles accumulates per request, in order — the float
// sums are part of the bit-exactness contract), occupancy and latency.
func (m *Model) serve(now float64, addr uint64, xfer float64) (done float64) {
	ch := m.channel(addr)
	start := now
	if m.nextFree[ch] > start {
		m.Stats.QueueCycles += m.nextFree[ch] - start
		start = m.nextFree[ch]
	}
	m.nextFree[ch] = start + xfer
	return start + m.cfg.LatencyCycles + xfer
}

// Request serves a blocking line transfer issued at time `now` (core cycles)
// and returns its completion time. Callers must issue requests in
// non-decreasing global time order (the simulator's event ordering
// guarantees this), so per-channel FIFO queueing is exact.
func (m *Model) Request(now float64, addr uint64, bytes int64, write bool) (done float64) {
	xfer := m.lineXfer
	if bytes != m.cfg.LineBytes {
		xfer = float64(bytes) / m.cfg.BytesPerCycle
	}
	done = m.serve(now, addr, xfer)
	if write {
		m.Stats.Writes++
		m.Stats.BytesWritten += uint64(bytes)
	} else {
		m.Stats.Reads++
		m.Stats.BytesRead += uint64(bytes)
	}
	return done
}

// LineRead is the timing of a line-sized read Request (same serve core)
// without its Reads/BytesRead counters.
// Its only caller is bench/ladder.go's dram.request_ns rung; it goes when a
// benchmark PR retires that rung.
func (m *Model) LineRead(now float64, addr uint64) (done float64) {
	return m.serve(now, addr, m.lineXfer)
}

// Posted serves a non-blocking transfer (write-back or prefetch fill): it
// occupies channel time but the caller does not wait on the result beyond
// the returned completion time (prefetchers record it as the line's ready
// time; write-backs ignore it).
func (m *Model) Posted(now float64, addr uint64, bytes int64, write bool) (done float64) {
	return m.Request(now, addr, bytes, write)
}

// Reset clears queue state and statistics.
func (m *Model) Reset() {
	clear(m.nextFree)
	m.Stats = Stats{}
}
