package cmp_test

import (
	"fmt"
	"sync"
	"testing"

	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/cpu"
	"snug/internal/isa"
	"snug/internal/stats"
	"snug/internal/trace"
)

// goldenBench is the representative mixed workload of the scheme benchmarks.
var goldenBench = []string{"ammp", "parser", "swim", "mesa"}

const goldenCycles = 1_200_000

// goldenDigest hashes everything a run reports — per-core stats, cache and
// bus counters, scheme events — into one value.
func goldenDigest(r cmp.RunResult) string {
	return fmt.Sprintf("%016x", stats.HashString(fmt.Sprintf("%+v", r)))
}

// goldenDigests pins every scheme family's run of goldenBench at
// goldenCycles on the default test-scale system.
var goldenDigests = []struct{ scheme, digest string }{
	{"L2P", "bb86a2a8ee966029"},
	{"L2S", "c161acaa64527c8d"},
	{"CC(75%)", "bebfa5e38d97f96e"},
	{"DSR", "de94197dab418acb"},
	{"SNUG", "fb8ac38b40b7bdf7"},
}

// TestGoldenSNUGDigest pins the exact simulation outcome of the default
// test-scale run under each scheme family. The SNUG digest was captured
// before the record/replay subsystem and the hot-path rework (LSQ heap,
// cache lookup split, memFunc flattening) landed, so it guards the whole
// refactor; the other four pin the controllers that share SNUG's
// below-L1 plumbing. Any change to what the simulator computes — not just
// how fast — fails here. Bump a digest only for an intentional model
// change, together with the checkpoint-store fingerprint version in
// internal/sweep.
func TestGoldenSNUGDigest(t *testing.T) {
	cfg := config.TestScale()
	for _, g := range goldenDigests {
		res, err := cmp.RunWorkload(cfg, g.scheme, goldenBench, goldenCycles)
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenDigest(res); got != g.digest {
			t.Errorf("golden %s digest = %s, want %s (seed %d)\n"+
				"The simulator's output changed. If intentional, update the digest AND bump\n"+
				"sweep's fingerprintVersion so stale checkpoint stores are refused.",
				g.scheme, got, g.digest, cfg.Seed)
		}
	}
}

// TestReplayBitExact is the record/replay correctness bar: simulating over
// recorded streams must produce results identical to the live generators,
// for every scheme family (schemes consume different stream prefixes,
// exercising lazy extension at different depths). It covers both kinds of
// recording: plain trace replays, and the op tapes every sweep runs, as
// Evaluate runs them — a cell of three StreamCache runs, the first
// recording the tapes and the other two reading them concurrently.
func TestReplayBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("25 full simulations; skipped in -short (the -race job) — the full suite runs it")
	}
	cfg := config.TestScale()
	for _, g := range goldenDigests {
		scheme := g.scheme
		live, err := cmp.RunWorkload(cfg, scheme, goldenBench, goldenCycles)
		if err != nil {
			t.Fatal(err)
		}
		want := goldenDigest(live)
		streams, err := cmp.WorkloadStreams(cfg, goldenBench, cmp.PhaseRefs(goldenCycles))
		if err != nil {
			t.Fatal(err)
		}
		recs := trace.RecordAll(streams)
		// A second set of cursors over the same recordings must reproduce
		// the run again (cursor independence at system level).
		for _, pass := range []string{"replay", "second replay"} {
			replayed, err := cmp.RunStreams(cfg, scheme, trace.Replays(recs), goldenCycles)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenDigest(replayed); got != want {
				t.Errorf("%s: %s digest %s != live digest %s", scheme, pass, got, want)
			}
		}

		sc := cmp.NewStreamCache()
		var runs [3]cmp.RunResult
		var errs [3]error
		runs[0], errs[0] = sc.Run(cfg, scheme, goldenBench, goldenCycles, len(runs))
		var wg sync.WaitGroup
		for i := 1; i < len(runs); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runs[i], errs[i] = sc.Run(cfg, scheme, goldenBench, goldenCycles, len(runs))
			}(i)
		}
		wg.Wait()
		for i, r := range runs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if got := goldenDigest(r); got != want {
				t.Errorf("%s: tape run %d of the cell: digest %s != live digest %s", scheme, i, got, want)
			}
		}
	}
}

// TestRunInQuantumChunks pins System.Run's precondition from the side that
// holds: for every scheme family, on the live path and on the tape path,
// twelve Run calls of 100,000 cycles — a multiple of the quantum — give the
// digest of one 1.2M-cycle run.
func TestRunInQuantumChunks(t *testing.T) {
	if testing.Short() {
		t.Skip("10 full simulations; the full suite runs it")
	}
	const chunk = 100_000
	cfg := config.TestScale()
	streams := func() []isa.Stream {
		s, err := cmp.WorkloadStreams(cfg, goldenBench, cmp.PhaseRefs(goldenCycles))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, g := range goldenDigests {
		var tapes []*cpu.Tape
		for i, s := range streams() {
			tapes = append(tapes, cpu.NewTape(cfg, i, s))
		}
		for _, path := range []struct {
			name string
			sys  func() (*cmp.System, error)
		}{
			{"live", func() (*cmp.System, error) { return cmp.NewSystem(cfg, g.scheme, streams()) }},
			{"tape", func() (*cmp.System, error) { return cmp.NewTapeSystem(cfg, g.scheme, tapes) }},
		} {
			sys, err := path.sys()
			if err != nil {
				t.Fatal(err)
			}
			var r cmp.RunResult
			for done := int64(0); done < goldenCycles; done += chunk {
				r = sys.Run(chunk)
			}
			if got := goldenDigest(r); got != g.digest {
				t.Errorf("%s on the %s path in %d-cycle Runs: digest %s, want %s", g.scheme, path.name, chunk, got, g.digest)
			}
		}
	}
}
