// Package cmp assembles and drives the simulated CMP — the paper's
// quad-core system or a scaled-out N-core variant: per-core out-of-order
// cores and private L1 data caches on top of one of the registered LLC
// scheme controllers (L2P, L2S, CC, DSR, SNUG). Cores advance in lock-step
// quanta; cross-core structures (bus, peer slices, DRAM) are
// timestamp-arbitrated inside the controller. For a fixed configuration,
// seed and core order the simulation is deterministic.
package cmp

import (
	"fmt"

	"snug/internal/addr"
	"snug/internal/config"
	"snug/internal/cpu"
	"snug/internal/isa"
	"snug/internal/schemes"
	"snug/internal/trace"
)

// CoreResult summarizes one core's execution.
type CoreResult struct {
	Benchmark    string
	Instructions int64
	Cycles       int64
	IPC          float64
	L1Hits       int64
	L1Misses     int64
	CPUStats     cpu.Stats
}

// L1MissRate returns the core's L1 data miss rate.
func (c CoreResult) L1MissRate() float64 {
	t := c.L1Hits + c.L1Misses
	if t == 0 {
		return 0
	}
	return float64(c.L1Misses) / float64(t)
}

// RunResult is a full simulation outcome.
type RunResult struct {
	Scheme string
	Cycles int64
	Cores  []CoreResult
	Report schemes.Report
}

// Throughput returns the sum of per-core IPCs (Table 5).
func (r RunResult) Throughput() float64 {
	t := 0.0
	for _, c := range r.Cores {
		t += c.IPC
	}
	return t
}

// System is an assembled CMP ready to run. A live system steps each core
// over its instruction stream, through its L1 (the core's MemFunc). A tape
// system steps each core over a tape cursor, whose ops already carry the
// core's L1 and branch outcomes; only StreamCache builds one.
type System struct {
	cfg   config.System
	ctrl  schemes.Controller
	l2    cpu.L2 // ctrl, converted once
	cores []*cpu.Core
	names []string
	clock int64

	// Live systems only.
	streams []isa.Stream
	l1      []*cpu.L1
	mem     []cpu.MemFunc // l1[i].Access, bound once

	tapes []*cpu.TapeCursor // tape systems only
}

// newSystem assembles the cores and the scheme controller, one core per
// name; the callers attach each core's instruction source.
func newSystem(cfg config.System, scheme string, names []string) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(names) != cfg.Cores {
		return nil, fmt.Errorf("cmp: %d streams for %d cores", len(names), cfg.Cores)
	}
	ctrl, err := schemes.Build(scheme, cfg)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, ctrl: ctrl, l2: ctrl, cores: make([]*cpu.Core, cfg.Cores), names: names}
	for i := range s.cores {
		s.cores[i] = cpu.NewCore(cfg.Core)
	}
	return s, nil
}

// NewSystem assembles a CMP running the named scheme with one instruction
// stream per core.
func NewSystem(cfg config.System, scheme string, streams []isa.Stream) (*System, error) {
	names := make([]string, len(streams))
	for i, st := range streams {
		names[i] = st.Name()
	}
	s, err := newSystem(cfg, scheme, names)
	if err != nil {
		return nil, err
	}
	s.streams = streams
	s.l1 = make([]*cpu.L1, cfg.Cores)
	s.mem = make([]cpu.MemFunc, cfg.Cores)
	for i := range s.l1 {
		s.l1[i] = cpu.NewL1(cfg, i, s.l2)
		s.mem[i] = s.l1[i].Access
	}
	return s, nil
}

// newTapeSystem assembles a CMP running the named scheme over one tape per
// core, each read by a fresh cursor.
func newTapeSystem(cfg config.System, scheme string, tapes []*cpu.Tape) (*System, error) {
	names := make([]string, len(tapes))
	for i, t := range tapes {
		names[i] = t.Name()
	}
	s, err := newSystem(cfg, scheme, names)
	if err != nil {
		return nil, err
	}
	s.tapes = make([]*cpu.TapeCursor, len(tapes))
	for i, t := range tapes {
		s.tapes[i] = t.Cursor()
	}
	return s, nil
}

// Controller exposes the scheme controller (tests, reporting).
func (s *System) Controller() schemes.Controller { return s.ctrl }

// Run advances the system by cycles and returns the result, cumulative from
// construction. Each quantum steps the cores in index order and then ticks
// the controller. Run may be called repeatedly, but a run split into calls
// equals the whole run only when every call's cycles is a multiple of
// cfg.Quantum: a call that ends inside a quantum ticks the controller
// there, which re-interleaves the cores' controller calls.
func (s *System) Run(cycles int64) RunResult {
	end := s.clock + cycles
	q := s.cfg.Quantum
	l1Lat := int64(s.cfg.Mem.L1Lat)
	for s.clock < end {
		boundary := min(s.clock+q, end)
		for i, c := range s.cores {
			if s.tapes != nil {
				c.RunTape(boundary, s.tapes[i], s.l2, l1Lat)
			} else {
				c.Run(boundary, s.streams[i], s.mem[i])
			}
		}
		s.ctrl.Tick(boundary)
		s.clock = boundary
	}
	return s.result()
}

// result snapshots the current state into a RunResult.
func (s *System) result() RunResult {
	r := RunResult{
		Scheme: s.ctrl.Name(),
		Cycles: s.clock,
		Report: s.ctrl.Report(),
		Cores:  make([]CoreResult, len(s.cores)),
	}
	for i, c := range s.cores {
		st := c.Stats()
		var hits, misses int64
		if s.tapes != nil {
			hits, misses = s.tapes[i].L1()
		} else {
			l1 := s.l1[i].Stats()
			hits, misses = l1.Hits, l1.Misses
		}
		r.Cores[i] = CoreResult{
			Benchmark:    s.names[i],
			Instructions: st.Instructions,
			Cycles:       s.clock,
			IPC:          float64(st.Instructions) / float64(s.clock),
			L1Hits:       hits,
			L1Misses:     misses,
			CPUStats:     st,
		}
	}
	return r
}

// WorkloadStreams builds one generator per core for the named benchmarks,
// on a system cfg.Validate accepts. totalRefs is the per-generator
// phase-cycle length; each core gets a distinct seed derived from
// cfg.Seed.
func WorkloadStreams(cfg config.System, benchmarks []string, totalRefs int64) ([]isa.Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(benchmarks) != cfg.Cores {
		return nil, fmt.Errorf("cmp: %d benchmarks for %d cores", len(benchmarks), cfg.Cores)
	}
	geom := addr.MustGeometry(cfg.Mem.L2Slice.BlockBytes, cfg.Mem.L2Slice.Sets())
	streams := make([]isa.Stream, len(benchmarks))
	for i, name := range benchmarks {
		prof, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		gen, err := trace.NewGenerator(prof, geom, cfg.Seed+uint64(i)*0x1000_0001, totalRefs)
		if err != nil {
			return nil, err
		}
		// Each instance gets its own physical page mapping: identical
		// benchmarks share a demand distribution but not concrete hot-set
		// indexes (see Generator.WithDemandSalt).
		gen.WithDemandSalt(uint64(i) + 1)
		streams[i] = gen
	}
	return streams, nil
}

// PhaseRefs is the generator phase-cycle length RunWorkload derives from a
// run length. It is exported so callers that build streams themselves (the
// benchmark harnesses) stay byte-compatible with RunWorkload's streams: roughly one distinct touch
// per L2Every instructions at IPC ~1 means cycles/40 touches; cycles/32
// lets multi-phase workloads (vortex) rotate through all phases about once
// per run.
func PhaseRefs(cycles int64) int64 {
	totalRefs := cycles / 32
	if totalRefs < 1000 {
		totalRefs = 1000
	}
	return totalRefs
}

// RunStreams assembles the system under scheme over pre-built streams
// (live generators or trace replays) and runs it for cycles, which must be
// positive.
func RunStreams(cfg config.System, scheme string, streams []isa.Stream, cycles int64) (RunResult, error) {
	if err := checkCycles(cycles); err != nil {
		return RunResult{}, err
	}
	sys, err := NewSystem(cfg, scheme, streams)
	if err != nil {
		return RunResult{}, err
	}
	return sys.Run(cycles), nil
}

// checkCycles refuses a run length that is not positive, whose result
// would report NaN IPCs.
func checkCycles(cycles int64) error {
	if cycles <= 0 {
		return fmt.Errorf("cmp: run length %d cycles is not positive", cycles)
	}
	return nil
}

// RunWorkload is the one-call convenience used by the CLI tools, examples
// and benchmarks: build streams, assemble the system under scheme, run for
// cycles.
func RunWorkload(cfg config.System, scheme string, benchmarks []string, cycles int64) (RunResult, error) {
	streams, err := WorkloadStreams(cfg, benchmarks, PhaseRefs(cycles))
	if err != nil {
		return RunResult{}, err
	}
	return RunStreams(cfg, scheme, streams, cycles)
}
