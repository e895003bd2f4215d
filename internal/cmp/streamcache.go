package cmp

import (
	"sync"

	"snug/internal/config"
	"snug/internal/trace"
)

// StreamCache shares recorded instruction streams among the runs of one
// sweep that use the same seed. A sweep's paired comparisons hand every
// scheme of one (combo, replicate) cell the same seed, so each of the
// cell's runs would otherwise synthesize an identical instruction stream
// from scratch. The cache records the streams on the cell's first run and
// hands every later run replay cursors instead (see internal/trace's
// record/replay subsystem); replay reproduces the live streams exactly.
//
// Entries are keyed by cfg.Seed alone: runs that share a seed must share
// their benchmarks, run length and L2 slice geometry, which the sweeps
// guarantee by deriving the seed from the cell identity (sweep.JobSeed).
//
// Memory stays bounded by in-flight cells: each run declares how many runs
// will ask for its seed, the entry leaves the cache when the last one has,
// and its recordings return to the trace chunk pool when the last replay
// finishes. A seed asked fewer times than declared — a cell partly
// restored from a checkpoint — stays cached until the cache is dropped.
type StreamCache struct {
	mu      sync.Mutex
	entries map[uint64]*streamEntry
}

type streamEntry struct {
	recs      []*trace.Recording
	remaining int // runs that have not yet asked for the streams
	live      int // runs replaying the recordings now
}

// NewStreamCache returns an empty cache.
func NewStreamCache() *StreamCache {
	return &StreamCache{entries: make(map[uint64]*streamEntry)}
}

// Run is RunWorkload over streams shared with the other runs of cfg.Seed.
// uses is how many runs in total will ask for that seed: the first records
// the streams, the rest replay them, and the last one's finish recycles
// them. With uses == 1 there is nothing to share, so the run is live.
func (sc *StreamCache) Run(cfg config.System, scheme string, benchmarks []string, cycles int64, uses int) (RunResult, error) {
	if uses <= 1 {
		return RunWorkload(cfg, scheme, benchmarks, cycles)
	}
	sc.mu.Lock()
	e := sc.entries[cfg.Seed]
	if e == nil {
		live, err := WorkloadStreams(cfg, benchmarks, PhaseRefs(cycles))
		if err != nil {
			sc.mu.Unlock()
			return RunResult{}, err
		}
		e = &streamEntry{recs: trace.RecordAll(live), remaining: uses}
		sc.entries[cfg.Seed] = e
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
			trace.RecycleAll(e.recs)
		}
	}()
	return RunStreams(cfg, scheme, trace.Replays(e.recs), cycles)
}
