package cmp_test

import (
	"fmt"
	"testing"

	"snug/internal/cmp"
	"snug/internal/config"
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
// recorded-and-replayed streams must produce results identical to the live
// generators, for every scheme family (schemes consume different stream
// prefixes, exercising lazy extension at different depths).
func TestReplayBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("15 full simulations; skipped in -short (the -race job) — the full suite runs it")
	}
	cfg := config.TestScale()
	for _, g := range goldenDigests {
		scheme := g.scheme
		live, err := cmp.RunWorkload(cfg, scheme, goldenBench, goldenCycles)
		if err != nil {
			t.Fatal(err)
		}
		streams, err := cmp.WorkloadStreams(cfg, goldenBench, cmp.PhaseRefs(goldenCycles))
		if err != nil {
			t.Fatal(err)
		}
		recs := trace.RecordAll(streams)
		replayed, err := cmp.RunStreams(cfg, scheme, trace.Replays(recs), goldenCycles)
		if err != nil {
			t.Fatal(err)
		}
		if lg, rg := goldenDigest(live), goldenDigest(replayed); lg != rg {
			t.Errorf("%s: replay digest %s != live digest %s", scheme, rg, lg)
		}
		// A second set of cursors over the same recordings must reproduce
		// the run again (cursor independence at system level).
		again, err := cmp.RunStreams(cfg, scheme, trace.Replays(recs), goldenCycles)
		if err != nil {
			t.Fatal(err)
		}
		if goldenDigest(again) != goldenDigest(live) {
			t.Errorf("%s: second replay diverged", scheme)
		}
	}
}
