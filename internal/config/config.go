// Package config defines the simulated system's configuration — the
// quad-core CMP of the paper's Table 4 — plus scaled presets used by the
// test suite and the benchmark harness, and N-core scale-out variants
// (WithCores) behind the scaling study. Every
// latency, size and epoch constant in the simulator is sourced from here so
// that experiments can be scaled coherently.
package config

import (
	"fmt"
	"slices"
)

// Core holds the out-of-order core parameters (Table 4, left column).
//
// FetchQueue, IntALUs, FPALUs and MultDiv record Table 4's values, but the
// core model reads none of them: it has no fetch queue and no functional-
// unit contention, only the latencies below. They stay because every
// checkpoint fingerprint hashes the whole configuration, so dropping a
// field would orphan every existing store.
type Core struct {
	IssueWidth  int // instructions dispatched per cycle (8)
	CommitWidth int // instructions committed per cycle (8)
	FetchQueue  int // I-fetch queue entries (8); not modelled
	LSQSize     int // load/store queue entries (64)
	RUUSize     int // register update unit / window entries (128)

	IntALUs int // 4; not modelled
	FPALUs  int // 4; not modelled
	MultDiv int // 1 multiplier + 1 divider; not modelled
	ALULat  int // integer op latency
	FPLat   int // floating-point op latency
	MultLat int // multiply latency
	DivLat  int // divide latency
	LoadLat int // address-generation + L1 pipeline latency component

	BranchPenalty int // misprediction penalty in cycles (3)
	HistoryLength int // global history bits of the 2-level predictor (10)
	PredictorSize int // pattern-history-table entries (1024)
	BTBSets       int // 512
	BTBWays       int // 4
	RASEntries    int // 8
}

// CacheGeom holds one cache array's geometry.
type CacheGeom struct {
	SizeBytes  int
	Ways       int
	BlockBytes int
}

// Sets returns the number of sets implied by the geometry.
func (c CacheGeom) Sets() int { return c.SizeBytes / (c.Ways * c.BlockBytes) }

// Memory holds memory-hierarchy parameters (Table 4, right column).
type Memory struct {
	L1Lat      int       // L1 hit latency in cycles (1)
	L1D        CacheGeom // 32 KB, 4-way, 64 B
	L2Lat      int       // local L2 hit latency (10)
	L2Slice    CacheGeom // per-core slice: 1 MB, 16-way, 64 B
	RemoteLat  int       // remote L2 access latency for L2P/CC/DSR (30)
	SNUGRemote int       // remote latency for SNUG incl. G/T lookup (40)
	DRAMLat    int       // 300

	BusWidthBytes int // 16 B-wide split-transaction bus
	BusSpeedRatio int // core-to-bus clock ratio (4:1)
	BusArbCycles  int // arbitration, in bus cycles (1)

	WriteBufEntries int // 16 entries x 64 B, FIFO, mergeable, direct-read
	AddressBits     int // 32
}

// SNUG holds the SNUG mechanism parameters (paper §3).
type SNUG struct {
	CounterBits   int   // k, saturating-counter width (4)
	PDivisor      int   // p: decrement after every p hits; threshold σ > 1/p (8)
	StageICycles  int64 // G/T identification stage length (5,000,000)
	StageIICycles int64 // grouping/spill stage length (100,000,000)
	// ShadowWays is the shadow set associativity. The paper uses the same
	// associativity as the real set so that real+shadow form two buckets.
	ShadowWays int
	// IndexFlip enables the index-bit-flipping grouping scheme. Disabling it
	// restricts grouping to same-index peer sets (an ablation of §3.2).
	IndexFlip bool
	// DropOnFlip invalidates cooperatively cached blocks stranded in sets
	// whose status flips from giver to taker at a G/T re-latch, keeping
	// retrieval lookups (which consult the G/T vector) complete.
	DropOnFlip bool
}

// DSR holds Dynamic Spill-Receive parameters (Qureshi, HPCA'09).
type DSR struct {
	SampleSets int // dedicated spiller-sample and receiver-sample sets (32 each)
	PSELBits   int // policy-selector width (10)
}

// CC holds baseline Cooperative Caching parameters (Chang & Sohi).
type CC struct {
	SpillPercent int // one of CCSpillPercents: the probability of a bare "CC" spec (100)
}

// CCSpillPercents are the spill probabilities, in percent, at which §4.1
// evaluates CC; CC(Best) is the best of them per workload. A CC spec and
// CC.SpillPercent must name one of them.
var CCSpillPercents = []int{0, 25, 50, 75, 100}

// System is the complete simulated-system configuration.
type System struct {
	Cores int // 4
	Core  Core
	Mem   Memory
	SNUG  SNUG
	DSR   DSR
	CC    CC
	// Quantum is the multi-core lock-step quantum in cycles: each core runs
	// to the next quantum boundary before cross-core state is advanced.
	Quantum int64
	Seed    uint64
}

// Default returns the paper's Table 4 configuration.
func Default() System {
	return System{
		Cores: 4,
		Core: Core{
			IssueWidth:    8,
			CommitWidth:   8,
			FetchQueue:    8,
			LSQSize:       64,
			RUUSize:       128,
			IntALUs:       4,
			FPALUs:        4,
			MultDiv:       1,
			ALULat:        1,
			FPLat:         4,
			MultLat:       3,
			DivLat:        20,
			LoadLat:       1,
			BranchPenalty: 3,
			HistoryLength: 10,
			PredictorSize: 1024,
			BTBSets:       512,
			BTBWays:       4,
			RASEntries:    8,
		},
		Mem: Memory{
			L1Lat:           1,
			L1D:             CacheGeom{SizeBytes: 32 << 10, Ways: 4, BlockBytes: 64},
			L2Lat:           10,
			L2Slice:         CacheGeom{SizeBytes: 1 << 20, Ways: 16, BlockBytes: 64},
			RemoteLat:       30,
			SNUGRemote:      40,
			DRAMLat:         300,
			BusWidthBytes:   16,
			BusSpeedRatio:   4,
			BusArbCycles:    1,
			WriteBufEntries: 16,
			AddressBits:     32,
		},
		SNUG: SNUG{
			CounterBits:   4,
			PDivisor:      8,
			StageICycles:  5_000_000,
			StageIICycles: 100_000_000,
			ShadowWays:    16,
			IndexFlip:     true,
			DropOnFlip:    true,
		},
		DSR: DSR{SampleSets: 32, PSELBits: 10},
		CC:  CC{SpillPercent: 100},
		// The quantum bounds cross-core timestamp skew on the shared bus;
		// it must stay well below the DRAM latency or later-ordered cores
		// see artificially inflated queueing delays.
		Quantum: 100,
		Seed:    0x5eed_c0de,
	}
}

// TestScale returns a configuration shrunk for fast unit/integration tests:
// small caches (so working sets warm up within a few hundred thousand
// cycles) and short SNUG stages (so several epochs fit in a short run).
// The relative geometry — shadow associativity equals L2 associativity,
// A_threshold = 2×ways — matches the paper's.
func TestScale() System {
	s := Default()
	s.Mem.L1D = CacheGeom{SizeBytes: 4 << 10, Ways: 4, BlockBytes: 64}
	s.Mem.L2Slice = CacheGeom{SizeBytes: 64 << 10, Ways: 16, BlockBytes: 64} // 64 sets
	// Stage I must observe enough touches per set (~50+) for reliable G/T
	// classification, mirroring the paper's 5 M-cycle stage over 1024 sets.
	s.SNUG.StageICycles = 100_000
	s.SNUG.StageIICycles = 900_000
	// Keep the dedicated-sample fraction at the paper's ~3% of sets.
	s.DSR.SampleSets = 2
	return s
}

// WithCores returns the quad-core base s widened to n cores for the
// scale-out scenarios. Per-core structures — L2 slices, write buffers,
// L1s, DSR sample sets — replicate with the core count, so total LLC
// capacity grows linearly (the scale-out model: each added core brings its
// slice). The shared snoop bus widens in proportion to keep per-core
// bandwidth constant: the data-path width doubles with every core-count
// doubling up to the block size, after which the core-to-bus clock ratio
// steps down instead. The bus scaling is relative to the quad-core
// baseline, so s must have Cores == 4 (widening an already-widened system
// would compound it); n must be 4·2^k so the widened bus geometry stays a
// power of two. WithCores(s, 4) = s.
func WithCores(s System, n int) (System, error) {
	if s.Cores != 4 {
		return System{}, fmt.Errorf("config: WithCores needs the quad-core base, got %d cores", s.Cores)
	}
	if n <= 0 || n%4 != 0 || (n/4)&(n/4-1) != 0 {
		return System{}, fmt.Errorf("config: core count %d must be 4, 8, 16, ... (4 times a power of two)", n)
	}
	factor := n / 4
	s.Cores = n
	width := s.Mem.BusWidthBytes * factor
	if width > s.Mem.L2Slice.BlockBytes {
		// A data beat cannot exceed one block; convert the leftover factor
		// into a faster bus clock. When the clock ratio cannot absorb it
		// either, the constant-per-core-bandwidth invariant is unmeetable —
		// error out rather than silently under-provision the bus.
		leftover := width / s.Mem.L2Slice.BlockBytes
		width = s.Mem.L2Slice.BlockBytes
		if s.Mem.BusSpeedRatio%leftover != 0 || s.Mem.BusSpeedRatio/leftover < 1 {
			return System{}, fmt.Errorf(
				"config: cannot scale the bus to %d cores: width is capped at the %d B block and the %d:1 clock ratio cannot absorb the remaining x%d",
				n, s.Mem.L2Slice.BlockBytes, s.Mem.BusSpeedRatio, leftover)
		}
		s.Mem.BusSpeedRatio /= leftover
	}
	s.Mem.BusWidthBytes = width
	return s, nil
}

// Scaled returns the Table 4 configuration with SNUG stage lengths divided
// by factor, for runs shorter than the paper's 3-billion-cycle simulations.
// All schemes see the same system; only the adaptation epochs shrink so that
// multiple Stage I/II alternations still occur within a scaled run.
func Scaled(factor int64) System {
	s := Default()
	if factor <= 0 {
		factor = 1
	}
	s.SNUG.StageICycles = max(s.SNUG.StageICycles/factor, 2*s.Quantum)
	s.SNUG.StageIICycles = max(s.SNUG.StageIICycles/factor, 4*s.Quantum)
	return s
}

// maxWays is the associativity limit of the cache model's rank-nibble LRU
// (internal/cache).
const maxWays = 16

// Validate reports configuration errors: every system it accepts builds
// under each scheme.
func (s System) Validate() error {
	if s.Cores <= 0 {
		return fmt.Errorf("config: cores must be positive, got %d", s.Cores)
	}
	c := s.Core
	if c.RUUSize <= 0 || c.RASEntries <= 0 || c.BTBWays <= 0 {
		return fmt.Errorf("config: RUU size %d, RAS entries %d and BTB ways %d must be positive", c.RUUSize, c.RASEntries, c.BTBWays)
	}
	if !pow2(c.PredictorSize) || !pow2(c.BTBSets) {
		return fmt.Errorf("config: predictor size %d and BTB sets %d must be positive powers of two", c.PredictorSize, c.BTBSets)
	}
	// The core places issue and commit by slot index, cycle<<log2(width)
	// plus count, which needs a width that is a power of two.
	if !pow2(c.IssueWidth) || !pow2(c.CommitWidth) {
		return fmt.Errorf("config: issue width %d and commit width %d must be positive powers of two", c.IssueWidth, c.CommitWidth)
	}
	if c.LSQSize <= 0 {
		return fmt.Errorf("config: LSQ size %d must be positive", c.LSQSize)
	}
	for _, l := range []struct {
		name string
		lat  int
	}{
		{"ALU", c.ALULat}, {"FP", c.FPLat}, {"multiply", c.MultLat}, {"divide", c.DivLat},
		{"load", c.LoadLat}, {"branch penalty", c.BranchPenalty},
		{"L1", s.Mem.L1Lat}, {"L2", s.Mem.L2Lat}, {"remote L2", s.Mem.RemoteLat}, {"SNUG remote", s.Mem.SNUGRemote},
	} {
		if l.lat < 0 {
			return fmt.Errorf("config: %s latency %d is negative", l.name, l.lat)
		}
	}
	for _, g := range []struct {
		name string
		g    CacheGeom
	}{{"L1D", s.Mem.L1D}, {"L2Slice", s.Mem.L2Slice}} {
		if g.g.SizeBytes <= 0 || g.g.Ways <= 0 || g.g.BlockBytes <= 0 {
			return fmt.Errorf("config: %s geometry has non-positive field: %+v", g.name, g.g)
		}
		if g.g.Ways > maxWays {
			return fmt.Errorf("config: %s associativity %d exceeds %d ways", g.name, g.g.Ways, maxWays)
		}
		if sets := g.g.Sets(); !pow2(sets) {
			return fmt.Errorf("config: %s set count %d is not a power of two", g.name, sets)
		}
	}
	if !pow2(s.Mem.L2Slice.Ways) {
		return fmt.Errorf("config: L2 associativity %d is not a power of two (paper requires A_baseline to be one)", s.Mem.L2Slice.Ways)
	}
	m := s.Mem
	if m.WriteBufEntries <= 0 || m.BusWidthBytes <= 0 || m.BusSpeedRatio <= 0 || m.BusArbCycles < 0 || m.DRAMLat <= 0 {
		return fmt.Errorf("config: write buffer entries %d, bus width %d, bus speed ratio %d and DRAM latency %d must be positive, bus arbitration %d non-negative",
			m.WriteBufEntries, m.BusWidthBytes, m.BusSpeedRatio, m.DRAMLat, m.BusArbCycles)
	}
	if s.SNUG.CounterBits < 2 || s.SNUG.CounterBits > 15 {
		return fmt.Errorf("config: SNUG counter width %d out of range [2,15]", s.SNUG.CounterBits)
	}
	if !pow2(s.SNUG.PDivisor) {
		return fmt.Errorf("config: SNUG p=%d must be a positive power of two", s.SNUG.PDivisor)
	}
	if s.SNUG.ShadowWays <= 0 || s.SNUG.ShadowWays > maxWays {
		return fmt.Errorf("config: SNUG shadow associativity %d out of range [1,%d]", s.SNUG.ShadowWays, maxWays)
	}
	if s.SNUG.StageICycles <= 0 || s.SNUG.StageIICycles <= 0 {
		return fmt.Errorf("config: SNUG stage lengths must be positive")
	}
	if s.DSR.SampleSets <= 0 || s.DSR.SampleSets*2 >= s.Mem.L2Slice.Sets() {
		return fmt.Errorf("config: DSR needs 1 to %d sample sets of each kind, got %d", (s.Mem.L2Slice.Sets()-1)/2, s.DSR.SampleSets)
	}
	if s.DSR.PSELBits < 1 || s.DSR.PSELBits > 30 {
		return fmt.Errorf("config: DSR PSEL width %d out of range [1,30]", s.DSR.PSELBits)
	}
	if !slices.Contains(CCSpillPercents, s.CC.SpillPercent) {
		return fmt.Errorf("config: CC spill probability %d%% not one of the paper's %v", s.CC.SpillPercent, CCSpillPercents)
	}
	if s.Quantum <= 0 {
		return fmt.Errorf("config: quantum must be positive")
	}
	return nil
}

// pow2 reports whether n is a positive power of two.
func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }
