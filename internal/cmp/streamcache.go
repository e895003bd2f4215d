package cmp

import (
	"fmt"
	"strings"
	"sync"

	"snug/internal/config"
	"snug/internal/cpu"
)

// StreamCache shares the cores' front ends among the runs of one sweep
// that use the same seed. A sweep's paired comparisons hand every scheme of
// one (combo, replicate) cell the same seed, so each core sees the same
// instruction stream in all of the cell's runs, and the runs differ only
// below the L1. The cache records one op tape per core on the cell's first
// run — the stream filtered through the core's branch predictor, BTB, RAS
// and L1 data cache (see cpu.Tape) — and every run of the cell steps its
// cores over cursors of those tapes. The results equal RunWorkload's.
//
// Entries are keyed by cfg.Seed, and each entry keeps what its tapes were
// built from: the benchmarks, the run length, the L2 slice geometry the
// generators draw from, and the cores' predictor, BTB, RAS and L1 data
// cache sizes. A run that asks for a cached seed with different inputs is
// refused, so a tape never replays under another front end. Everything
// else in the configuration — the scheme's parameters, the latencies, the
// core's window and widths — may differ between the runs of a cell.
//
// Memory stays bounded by in-flight cells: each run declares how many runs
// will ask for its seed, the entry leaves the cache when the last one has,
// and its tapes return to the chunk pool when the last run finishes. A
// seed asked fewer times than declared — a cell partly restored from a
// checkpoint — stays cached until the cache is dropped.
type StreamCache struct {
	mu      sync.Mutex
	entries map[uint64]*streamEntry
}

type streamEntry struct {
	cell      cell
	tapes     []*cpu.Tape
	remaining int // runs that have not yet asked for the tapes
	live      int // runs reading the tapes now
}

// cell is what the runs sharing an entry must agree on besides the seed.
type cell struct {
	benchmarks string
	cycles     int64
	l2         [2]int // L2 slice block bytes and sets
	l1         config.CacheGeom
	branch     [5]int // predictor entries and history bits, BTB sets and ways, RAS entries
}

func cellOf(cfg config.System, benchmarks []string, cycles int64) cell {
	c := cfg.Core
	return cell{
		benchmarks: strings.Join(benchmarks, ","),
		cycles:     cycles,
		l2:         [2]int{cfg.Mem.L2Slice.BlockBytes, cfg.Mem.L2Slice.Sets()},
		l1:         cfg.Mem.L1D,
		branch:     [5]int{c.PredictorSize, c.HistoryLength, c.BTBSets, c.BTBWays, c.RASEntries},
	}
}

// NewStreamCache returns an empty cache.
func NewStreamCache() *StreamCache {
	return &StreamCache{entries: make(map[uint64]*streamEntry)}
}

// Run is RunWorkload over tapes shared with the other runs of cfg.Seed.
// uses is how many runs in total will ask for that seed: the first records
// the tapes as its cores read them, the rest read them too, and the last
// one's finish recycles them. With uses == 1 there is nothing to share, so
// the run is live and records nothing.
func (sc *StreamCache) Run(cfg config.System, scheme string, benchmarks []string, cycles int64, uses int) (RunResult, error) {
	if err := checkCycles(cycles); err != nil {
		return RunResult{}, err
	}
	if uses <= 1 {
		return RunWorkload(cfg, scheme, benchmarks, cycles)
	}
	want := cellOf(cfg, benchmarks, cycles)
	sc.mu.Lock()
	e := sc.entries[cfg.Seed]
	switch {
	case e == nil:
		live, err := WorkloadStreams(cfg, benchmarks, PhaseRefs(cycles))
		if err != nil {
			sc.mu.Unlock()
			return RunResult{}, err
		}
		tapes := make([]*cpu.Tape, len(live))
		for i, s := range live {
			tapes[i] = cpu.NewTape(cfg, i, s)
		}
		e = &streamEntry{cell: want, tapes: tapes, remaining: uses}
		sc.entries[cfg.Seed] = e
	case e.cell != want:
		sc.mu.Unlock()
		return RunResult{}, fmt.Errorf("cmp: seed %#x is cached with %+v; a run asks for it with %+v", cfg.Seed, e.cell, want)
	}
	e.remaining--
	if e.remaining == 0 {
		delete(sc.entries, cfg.Seed)
	}
	e.live++
	sc.mu.Unlock()

	defer func() {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		e.live--
		if e.live == 0 && e.remaining == 0 {
			for _, t := range e.tapes {
				t.Recycle()
			}
		}
	}()
	sys, err := newTapeSystem(cfg, scheme, e.tapes)
	if err != nil {
		return RunResult{}, err
	}
	return sys.Run(cycles), nil
}
