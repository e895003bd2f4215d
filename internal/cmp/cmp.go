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
	"snug/internal/cache"
	"snug/internal/config"
	"snug/internal/cpu"
	"snug/internal/isa"
	"snug/internal/schemes"
	"snug/internal/trace"
)

// NewController builds the controller for a scheme spec string — a
// registered scheme name with optional parameters, e.g. "L2P", "SNUG" or
// "CC(75%)" (see schemes.Parse for the grammar).
func NewController(spec string, cfg config.System) (schemes.Controller, error) {
	return schemes.Build(spec, cfg)
}

// SchemeNames returns the registered scheme family names, sorted.
func SchemeNames() []string { return schemes.Names() }

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

// System is an assembled CMP ready to run.
type System struct {
	cfg     config.System
	ctrl    schemes.Controller
	cores   []*cpu.Core
	l1      []*cache.Cache
	paths   []corePath
	mem     []cpu.MemFunc // per-core hierarchy path, built once
	streams []isa.Stream
	names   []string
	clock   int64
}

// NewSystem assembles a CMP running the named scheme with one instruction
// stream per core.
func NewSystem(cfg config.System, scheme string, streams []isa.Stream) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(streams) != cfg.Cores {
		return nil, fmt.Errorf("cmp: %d streams for %d cores", len(streams), cfg.Cores)
	}
	ctrl, err := NewController(scheme, cfg)
	if err != nil {
		return nil, err
	}
	l1Geom := addr.MustGeometry(cfg.Mem.L1D.BlockBytes, cfg.Mem.L1D.Sets())
	s := &System{
		cfg:     cfg,
		ctrl:    ctrl,
		cores:   make([]*cpu.Core, cfg.Cores),
		l1:      make([]*cache.Cache, cfg.Cores),
		streams: streams,
		names:   make([]string, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		s.cores[i] = cpu.NewCore(cfg.Core)
		s.l1[i] = cache.MustNew(l1Geom, cfg.Mem.L1D.Ways)
		s.names[i] = streams[i].Name()
	}
	s.paths = make([]corePath, cfg.Cores)
	s.mem = make([]cpu.MemFunc, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		s.paths[i] = corePath{
			ctrl:  ctrl,
			l1:    s.l1[i],
			geom:  l1Geom,
			core:  i,
			base:  addr.ForCore(i, 0),
			l1Lat: int64(cfg.Mem.L1Lat),
		}
		s.mem[i] = s.paths[i].access
	}
	return s, nil
}

// Controller exposes the scheme controller (tests, reporting).
func (s *System) Controller() schemes.Controller { return s.ctrl }

// corePath is one core's flattened path into the hierarchy: private-address
// rebasing, L1 lookup, then the scheme controller. The rebase offset, L1
// hit latency and writeback geometry are precomputed at assembly so the
// per-access path dereferences one struct instead of walking a closure
// chain back through the System.
type corePath struct {
	ctrl  schemes.Controller
	l1    *cache.Cache
	geom  addr.Geometry // L1 geometry, hoisted for the writeback rebuild
	core  int
	base  addr.Addr // addr.ForCore(core, 0): OR-able private-space rebase
	l1Lat int64
}

// access resolves one data-memory access; it is the core's cpu.MemFunc.
func (p *corePath) access(now int64, a addr.Addr, write bool) int64 {
	pa := a | p.base
	if p.l1.Lookup(pa, write) {
		return now + p.l1Lat
	}
	done := p.ctrl.Access(p.core, now+p.l1Lat, pa, write)
	v := p.l1.Insert(pa, cache.Block{Dirty: write, Owner: int8(p.core)})
	if v.Valid && v.Dirty {
		p.ctrl.WritebackL1(p.core, now, p.geom.Rebuild(v.Tag, p.geom.Index(pa)))
	}
	return done
}

// Run advances the system by cycles and returns the result. It may be
// called repeatedly; results are cumulative from construction. Each
// quantum steps the cores in index order and then ticks the controller.
func (s *System) Run(cycles int64) RunResult {
	end := s.clock + cycles
	q := s.cfg.Quantum
	for s.clock < end {
		boundary := s.clock + q
		if boundary > end {
			boundary = end
		}
		for i, c := range s.cores {
			c.Run(boundary, s.streams[i], s.mem[i])
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
		l1 := s.l1[i].Stats()
		r.Cores[i] = CoreResult{
			Benchmark:    s.names[i],
			Instructions: st.Instructions,
			Cycles:       s.clock,
			IPC:          float64(st.Instructions) / float64(s.clock),
			L1Hits:       l1.Hits,
			L1Misses:     l1.Misses,
			CPUStats:     st,
		}
	}
	return r
}

// WorkloadStreams builds one generator per core for the named benchmarks.
// totalRefs is the per-generator phase-cycle length; each core gets a
// distinct seed derived from cfg.Seed.
func WorkloadStreams(cfg config.System, benchmarks []string, totalRefs int64) ([]isa.Stream, error) {
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
// (live generators or trace replays) and runs it for cycles.
func RunStreams(cfg config.System, scheme string, streams []isa.Stream, cycles int64) (RunResult, error) {
	sys, err := NewSystem(cfg, scheme, streams)
	if err != nil {
		return RunResult{}, err
	}
	return sys.Run(cycles), nil
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
