package experiments

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/metrics"
	"snug/internal/schemes"
	"snug/internal/sweep"
)

// replayOpts is a small but structurally complete evaluation: one class,
// two scheme families plus the CC spill sweep and the L2P baseline.
func replayOpts(checkpoint string, par, reps int) Options {
	return Options{
		Cfg:         config.TestScale(),
		RunCycles:   150_000,
		Parallelism: par,
		Classes:     []string{"C1"},
		Schemes:     []string{"CC", "SNUG"},
		Checkpoint:  checkpoint,
		Replicates:  reps,
	}
}

// liveSweep is the live reference for the stream cache: opt's evaluation
// matrix — the same jobs, fingerprint and sweep engine as Evaluate — with
// every run simulated by cmp.RunWorkload over live generators.
func liveSweep(t *testing.T, opt Options) map[string]cmp.RunResult {
	t.Helper()
	selected, err := selectSchemes(opt.Schemes)
	if err != nil {
		t.Fatal(err)
	}
	combos, err := selectCombos(opt.Classes, opt.Cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []sweep.Job
	for _, combo := range combos {
		cores := combo.Cores
		for _, spec := range append([]schemes.Spec{baselineSpec}, specsFor(selected)...) {
			label := spec.String()
			jobs = append(jobs, sweep.Job{
				Key:     jobKey(combo.Name, label),
				SeedKey: combo.Name,
				Run: func(seed uint64) (cmp.RunResult, error) {
					c := opt.Cfg
					c.Seed = seed
					return cmp.RunWorkload(c, label, cores, opt.RunCycles)
				},
			})
		}
	}
	fp, err := sweep.Fingerprint("evaluate", opt.RunCycles, "", opt.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sweep.Run(context.Background(), sweep.Options{
		Parallelism: opt.Parallelism,
		BaseSeed:    opt.Cfg.Seed,
		Checkpoint:  opt.Checkpoint,
		Fingerprint: fp,
		Replicates:  max(opt.Replicates, 1),
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestEvaluateReplayStoreByteIdentical is the stream cache's acceptance
// bar: an evaluation over recorded-replayed streams must write a checkpoint
// store byte-identical to one simulated over live generators — same keys,
// same results, same order — both single-run and replicated (replicate
// r > 0 records its own streams).
func TestEvaluateReplayStoreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("an evaluation plus its live reference, twice; skipped in -short")
	}
	for _, reps := range []int{1, 2} {
		dir := t.TempDir()
		livePath := filepath.Join(dir, "live.json")
		replayPath := filepath.Join(dir, "replay.json")
		// Checkpoint lines append in completion order; serialize both
		// sweeps for byte-comparable stores.
		liveSweep(t, replayOpts(livePath, 1, reps))
		if _, err := Evaluate(context.Background(), replayOpts(replayPath, 1, reps)); err != nil {
			t.Fatal(err)
		}
		live, err := os.ReadFile(livePath)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := os.ReadFile(replayPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(live) != string(replay) {
			t.Errorf("reps=%d: replayed checkpoint store differs from live-generator store\nlive:\n%s\nreplay:\n%s",
				reps, live, replay)
		}
	}
}

// TestEvaluateReplayResultsMatchParallel checks replay keeps the sweep's
// parallelism-independence: a replicated evaluation at Parallelism 4 (a
// cell's schemes share recordings across workers) stores, returns and
// compares exactly the serial live runs.
func TestEvaluateReplayResultsMatchParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("an evaluation plus its live reference; skipped in -short")
	}
	const reps = 2
	live := liveSweep(t, replayOpts("", 1, reps))
	ckpt := filepath.Join(t.TempDir(), "replay.json")
	ev, err := Evaluate(context.Background(), replayOpts(ckpt, 4, reps))
	if err != nil {
		t.Fatal(err)
	}
	store, err := sweep.OpenStore(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Len() != len(live) {
		t.Errorf("store holds %d results, want %d", store.Len(), len(live))
	}
	labels := []string{"L2P", "CC(0%)", "CC(25%)", "CC(50%)", "CC(75%)", "CC(100%)", "SNUG"}
	for _, cr := range ev.Combos {
		for r := 0; r < reps; r++ {
			for _, label := range labels {
				key := sweep.ReplicateKey(jobKey(cr.Combo.Name, label), r)
				want, ok := live[key]
				if !ok {
					t.Fatalf("live reference has no run %s", key)
				}
				if got, ok := store.Get(key); !ok || !reflect.DeepEqual(got, want) {
					t.Errorf("stored %s differs from the serial live run", key)
				}
				if got := cr.Runs[label]; r == 0 && !reflect.DeepEqual(got, want) {
					t.Errorf("returned %s differs from the serial live run", key)
				}
			}
			base := live[sweep.ReplicateKey(jobKey(cr.Combo.Name, "L2P"), r)]
			want, err := metrics.Compare(base, live[sweep.ReplicateKey(jobKey(cr.Combo.Name, "SNUG"), r)])
			if err != nil {
				t.Fatal(err)
			}
			want.Scheme = "SNUG"
			if got := cr.RepComparisons[r]["SNUG"]; !reflect.DeepEqual(got, want) {
				t.Errorf("combo %s replicate %d: SNUG comparison differs from the serial live runs'", cr.Combo.Name, r)
			}
		}
	}
}
