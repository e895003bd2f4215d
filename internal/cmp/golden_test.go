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

// TestGoldenSNUGDigest pins the exact simulation outcome of the default
// test-scale SNUG run. The digest was captured before the record/replay
// subsystem and the hot-path rework (LSQ heap, cache lookup split, memFunc
// flattening) landed, so it guards the whole refactor: any change to what
// the simulator computes — not just how fast — fails here. Bump the digest
// only for an intentional model change, together with the checkpoint-store
// fingerprint version in internal/sweep.
func TestGoldenSNUGDigest(t *testing.T) {
	const want = "fb8ac38b40b7bdf7"
	cfg := config.TestScale()
	res, err := cmp.RunWorkload(cfg, "SNUG", goldenBench, goldenCycles)
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenDigest(res); got != want {
		t.Fatalf("golden SNUG digest = %s, want %s (seed %d)\n"+
			"The simulator's output changed. If intentional, update the digest AND bump\n"+
			"sweep's fingerprintVersion so stale checkpoint stores are refused.",
			got, want, cfg.Seed)
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
	for _, scheme := range []string{"L2P", "L2S", "CC(75%)", "DSR", "SNUG"} {
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
