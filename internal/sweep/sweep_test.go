package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"snug/internal/cmp"
)

// fakeJob builds a synthetic job whose result is a pure function of the
// derived seed, so engine bookkeeping can be tested without simulations.
func fakeJob(key, seedKey string) Job {
	return Job{Key: key, SeedKey: seedKey, Run: func(seed uint64) (cmp.RunResult, error) {
		return cmp.RunResult{Scheme: key, Cycles: int64(seed >> 1)}, nil
	}}
}

func fakeJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = fakeJob(fmt.Sprintf("job-%02d", i), "")
	}
	return jobs
}

// TestRunDeterminism: results are bit-identical for every worker count.
func TestRunDeterminism(t *testing.T) {
	jobs := fakeJobs(23)
	var got []map[string]cmp.RunResult
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		r, err := Run(context.Background(), Options{Parallelism: par, BaseSeed: 42}, jobs)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		got = append(got, r)
	}
	if !reflect.DeepEqual(got[0], got[1]) || !reflect.DeepEqual(got[0], got[2]) {
		t.Error("results differ across Parallelism 1 / 4 / GOMAXPROCS")
	}
	if len(got[0]) != len(jobs) {
		t.Errorf("got %d results, want %d", len(got[0]), len(jobs))
	}
}

// TestParallelismNotCapped: Parallelism N runs N jobs at once even when N
// exceeds GOMAXPROCS. Every job waits until all of them have started, so
// the sweep finishes only if all N run concurrently; a cap below N would
// leave the started ones waiting until the timeout fails them.
func TestParallelismNotCapped(t *testing.T) {
	n := runtime.GOMAXPROCS(0) + 2
	var started atomic.Int32
	all := make(chan struct{})
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Key: fmt.Sprintf("job-%02d", i), Run: func(uint64) (cmp.RunResult, error) {
			if started.Add(1) == int32(n) {
				close(all)
			}
			select {
			case <-all:
				return cmp.RunResult{}, nil
			case <-time.After(10 * time.Second):
				return cmp.RunResult{}, fmt.Errorf("only %d of %d jobs started", started.Load(), n)
			}
		}}
	}
	if _, err := Run(context.Background(), Options{Parallelism: n}, jobs); err != nil {
		t.Fatalf("Parallelism %d at GOMAXPROCS %d: %v", n, runtime.GOMAXPROCS(0), err)
	}
}

// TestJobSeedIdentity: seeds are a pure function of (base, seed key) —
// distinct per identity, shared when jobs share a SeedKey, and moved as one
// by the base seed.
func TestJobSeedIdentity(t *testing.T) {
	if JobSeed(1, "a") == JobSeed(1, "b") {
		t.Error("distinct seed keys produced the same seed")
	}
	if JobSeed(1, "a") != JobSeed(1, "a") {
		t.Error("JobSeed not deterministic")
	}
	if JobSeed(1, "a") == JobSeed(2, "a") {
		t.Error("base seed ignored")
	}

	seeds := make(map[string]uint64)
	jobs := []Job{
		{Key: "combo/L2P", SeedKey: "combo"},
		{Key: "combo/SNUG", SeedKey: "combo"},
		{Key: "other/SNUG"},
	}
	for i := range jobs {
		key := jobs[i].Key
		jobs[i].Run = func(seed uint64) (cmp.RunResult, error) {
			seeds[key] = seed
			return cmp.RunResult{}, nil
		}
	}
	if _, err := Run(context.Background(), Options{Parallelism: 1, BaseSeed: 7}, jobs); err != nil {
		t.Fatal(err)
	}
	if seeds["combo/L2P"] != seeds["combo/SNUG"] {
		t.Error("jobs sharing a SeedKey got different seeds (comparisons unpaired)")
	}
	if seeds["combo/L2P"] == seeds["other/SNUG"] {
		t.Error("distinct seed keys collided")
	}
	if want := JobSeed(7, "other/SNUG"); seeds["other/SNUG"] != want {
		t.Errorf("SeedKey default: got seed %#x, want Key-derived %#x", seeds["other/SNUG"], want)
	}
}

// TestResumeSkipsCompleted: a second sweep over the same checkpoint restores
// finished jobs instead of rerunning them.
func TestResumeSkipsCompleted(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	first, err := Run(context.Background(), Options{Parallelism: 2, Checkpoint: ckpt}, fakeJobs(6))
	if err != nil {
		t.Fatal(err)
	}

	var executed atomic.Int64
	jobs := fakeJobs(8) // 6 checkpointed + 2 new
	for i := range jobs {
		inner := jobs[i].Run
		jobs[i].Run = func(seed uint64) (cmp.RunResult, error) {
			executed.Add(1)
			return inner(seed)
		}
	}
	var last Progress
	second, err := Run(context.Background(), Options{Parallelism: 2, Checkpoint: ckpt, OnProgress: func(p Progress) { last = p }}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := executed.Load(); n != 2 {
		t.Errorf("resume executed %d jobs, want 2 (6 restored)", n)
	}
	if last.Restored != 6 || last.Done != 8 || last.Total != 8 {
		t.Errorf("final progress %+v, want restored=6 done=8 total=8", last)
	}
	for k, v := range first {
		if !reflect.DeepEqual(second[k], v) {
			t.Errorf("restored result %s differs from original", k)
		}
	}
}

// TestErrorCancels: a failing job surfaces as a JobError with its identity,
// stops new jobs from starting, and still returns completed work.
func TestErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var executed atomic.Int64
	jobs := []Job{
		fakeJob("ok-0", ""),
		{Key: "bad", Run: func(uint64) (cmp.RunResult, error) { return cmp.RunResult{}, boom }},
	}
	for i := 0; i < 40; i++ {
		j := fakeJob(fmt.Sprintf("tail-%02d", i), "")
		inner := j.Run
		j.Run = func(seed uint64) (cmp.RunResult, error) {
			executed.Add(1)
			return inner(seed)
		}
		jobs = append(jobs, j)
	}
	res, err := Run(context.Background(), Options{Parallelism: 1}, jobs)
	if err == nil {
		t.Fatal("failing job did not surface an error")
	}
	var je *JobError
	if !errors.As(err, &je) || je.Key != "bad" {
		t.Errorf("error %v, want JobError for key \"bad\"", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("error %v does not unwrap to the job's error", err)
	}
	// With one worker the error lands before the tail is scheduled; allow a
	// couple of in-flight stragglers but not a full sweep.
	if n := executed.Load(); n > 3 {
		t.Errorf("%d tail jobs ran after the failure, want cancellation", n)
	}
	if _, ok := res["ok-0"]; !ok {
		t.Error("completed work discarded on error")
	}
}

// TestFingerprintGuard: a checkpoint produced under one configuration
// refuses to serve a sweep run under another, instead of silently mixing
// results; matching fingerprints resume normally.
func TestFingerprintGuard(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	if _, err := Run(context.Background(), Options{Checkpoint: ckpt, Fingerprint: "cfg-a"}, fakeJobs(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Options{Checkpoint: ckpt, Fingerprint: "cfg-b"}, fakeJobs(3)); err == nil {
		t.Error("mismatched fingerprint accepted — results from different configurations would mix")
	}
	var last Progress
	if _, err := Run(context.Background(), Options{Checkpoint: ckpt, Fingerprint: "cfg-a", OnProgress: func(p Progress) { last = p }}, fakeJobs(3)); err != nil {
		t.Fatalf("matching fingerprint rejected: %v", err)
	}
	if last.Restored != 3 {
		t.Errorf("matching resume restored %d, want 3", last.Restored)
	}

	// A store with results but no header cannot prove its provenance.
	legacy := filepath.Join(t.TempDir(), "legacy.json")
	if _, err := Run(context.Background(), Options{Checkpoint: legacy}, fakeJobs(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Options{Checkpoint: legacy, Fingerprint: "cfg-a"}, fakeJobs(2)); err == nil {
		t.Error("fingerprint-less store with results accepted for a fingerprinted sweep")
	}
}

// TestJobValidation rejects duplicate and empty keys.
func TestJobValidation(t *testing.T) {
	if _, err := Run(context.Background(), Options{}, []Job{fakeJob("a", ""), fakeJob("a", "")}); err == nil {
		t.Error("duplicate key accepted")
	}
	if _, err := Run(context.Background(), Options{}, []Job{fakeJob("", "")}); err == nil {
		t.Error("empty key accepted")
	}
}

// TestStoreTornTail: a checkpoint whose final line was torn by an interrupt
// loads every intact entry; corruption elsewhere is an error.
func TestStoreTornTail(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	if _, err := Run(context.Background(), Options{Parallelism: 1, Checkpoint: ckpt}, fakeJobs(3)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn","result":{"Sch`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := OpenStore(ckpt)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if s.Len() != 3 {
		t.Errorf("store has %d entries after torn tail, want 3", s.Len())
	}
	if _, ok := s.Get("torn"); ok {
		t.Error("torn entry surfaced")
	}
	// Appending after a torn tail must not glue onto the torn bytes: the
	// open truncates them, so a later open still parses every line.
	if err := s.Put("after-tear", cmp.RunResult{Scheme: "x"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := OpenStore(ckpt)
	if err != nil {
		t.Fatalf("reopen after post-tear append: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 4 {
		t.Errorf("store has %d entries after post-tear append, want 4", s2.Len())
	}
	if _, ok := s2.Get("after-tear"); !ok {
		t.Error("post-tear entry lost")
	}

	mid := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(mid, []byte("not-json\n{\"key\":\"x\",\"result\":{}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(mid); err == nil {
		t.Error("mid-file corruption accepted")
	}
}

// TestPutFailureKeepsResultAndContext: a checkpoint write failure surfaces
// as a *JobError carrying the job's key (not a bare store error), and the
// successfully computed result stays in the returned map with its progress
// accounted — the simulation is done even if persisting it was not.
func TestPutFailureKeepsResultAndContext(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	// NaN is not representable in JSON, so the store's marshal — and hence
	// Put — fails for exactly this job while the job itself succeeds.
	poison := Job{Key: "poisoned", Run: func(uint64) (cmp.RunResult, error) {
		return cmp.RunResult{Scheme: "poisoned", Cores: []cmp.CoreResult{{IPC: math.NaN()}}}, nil
	}}
	var last Progress
	res, err := Run(context.Background(), Options{Parallelism: 1, Checkpoint: ckpt, OnProgress: func(p Progress) { last = p }},
		[]Job{fakeJob("ok", ""), poison})
	if err == nil {
		t.Fatal("Put failure did not surface an error")
	}
	var je *JobError
	if !errors.As(err, &je) || je.Key != "poisoned" {
		t.Errorf("error %v, want *JobError for key \"poisoned\"", err)
	}
	if _, ok := res["poisoned"]; !ok {
		t.Error("computed result dropped on checkpoint failure")
	}
	if last.Done != 2 {
		t.Errorf("final progress done=%d, want 2 (the failed-to-persist job still completed)", last.Done)
	}
	// The store must still load: the failed Put wrote nothing (marshal
	// failed before the write), so only the ok job is checkpointed.
	s, err := OpenStore(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Errorf("store has %d entries, want 1", s.Len())
	}
}

// TestStoreDuplicateKey: a store holding two results under one key is
// corrupted (a single-writer sweep never rewrites a key); loading it must
// fail naming the offending line, not let the later line win silently.
func TestStoreDuplicateKey(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "dup.json")
	var lines []byte
	for _, kv := range [][2]string{{"a", `{"Scheme":"x"}`}, {"b", `{"Scheme":"y"}`}, {"a", `{"Scheme":"z"}`}} {
		e := storeEntry{Key: kv[0], Result: json.RawMessage(kv[1])}
		e.CRC = entryCRC(e)
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(append(lines, line...), '\n')
	}
	if err := os.WriteFile(ckpt, lines, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenStore(ckpt)
	if err == nil {
		t.Fatal("duplicate key accepted")
	}
	for _, want := range []string{"line 3", `"a"`, "duplicate"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestReplicateKeyGrammar pins the replicate key grammar: replicate 0 IS
// the base key (no "@r0" anywhere, so single-replicate sweeps keep their
// historic store keys), r > 0 appends "@r<r>", and SplitReplicateKey
// inverts ReplicateKey.
func TestReplicateKeyGrammar(t *testing.T) {
	if got := ReplicateKey("4xammp/SNUG", 0); got != "4xammp/SNUG" {
		t.Errorf("replicate 0 key %q, want the unsuffixed base", got)
	}
	if got := ReplicateKey("4xammp/SNUG", 3); got != "4xammp/SNUG@r3" {
		t.Errorf("replicate 3 key %q", got)
	}
	for _, key := range []string{"4xammp/SNUG", "4xammp/CC(75%)", "plain"} {
		for _, r := range []int{0, 1, 7, 12} {
			base, rep := SplitReplicateKey(ReplicateKey(key, r))
			if base != key || rep != r {
				t.Errorf("round trip (%q, %d) -> (%q, %d)", key, r, base, rep)
			}
		}
	}
	// A base key that itself looks like a replicate cannot round-trip —
	// which is why Run rejects such keys when Replicates > 1.
	if base, rep := SplitReplicateKey("a@r3"); base != "a" || rep != 3 {
		t.Errorf(`SplitReplicateKey("a@r3") = (%q, %d)`, base, rep)
	}
	// Malformed suffixes are part of the base key, never replicate 0 aliases.
	for _, key := range []string{"a@r0", "a@r-1", "a@rx", "a@r"} {
		if base, rep := SplitReplicateKey(key); base != key || rep != 0 {
			t.Errorf("SplitReplicateKey(%q) = (%q, %d), want the key itself", key, base, rep)
		}
	}
}

// TestRunReplicates: Replicates expands every job into independently-seeded
// copies — replicate 0 byte-identical to an unreplicated sweep, jobs
// sharing a SeedKey paired within each replicate, replicates drawing
// distinct seeds — and stays deterministic across worker counts.
func TestRunReplicates(t *testing.T) {
	// Each job's result carries its derived seed out in the Cycles field,
	// keyed in the results map by the expanded replicate key.
	jobs := []Job{
		{Key: "combo/L2P", SeedKey: "combo"},
		{Key: "combo/SNUG", SeedKey: "combo"},
	}
	for i := range jobs {
		key := jobs[i].Key
		jobs[i].Run = func(seed uint64) (cmp.RunResult, error) {
			return cmp.RunResult{Scheme: key, Cycles: int64(seed >> 1)}, nil
		}
	}
	res, err := Run(context.Background(), Options{Parallelism: 1, BaseSeed: 9, Replicates: 3}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("%d results, want 6 (2 jobs x 3 replicates)", len(res))
	}
	seedOf := func(key string) int64 { return res[key].Cycles }
	// Replicate 0 matches an unreplicated sweep exactly.
	if want := int64(JobSeed(9, "combo") >> 1); seedOf("combo/L2P") != want {
		t.Errorf("replicate 0 seed %#x, want the unreplicated JobSeed %#x", seedOf("combo/L2P"), want)
	}
	for r := 1; r < 3; r++ {
		l2p, snug := ReplicateKey("combo/L2P", r), ReplicateKey("combo/SNUG", r)
		if _, ok := res[l2p]; !ok {
			t.Fatalf("missing replicate key %s", l2p)
		}
		if seedOf(l2p) != seedOf(snug) {
			t.Errorf("replicate %d schemes unpaired: %#x vs %#x", r, seedOf(l2p), seedOf(snug))
		}
		if seedOf(l2p) == seedOf("combo/L2P") {
			t.Errorf("replicate %d reuses replicate 0's stream", r)
		}
	}

	// Determinism across worker counts, replicated.
	again, err := Run(context.Background(), Options{Parallelism: 4, BaseSeed: 9, Replicates: 3}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("replicated results differ between Parallelism 1 and 4")
	}

	// A key that already looks like a replicate would collide with the
	// expansion; reject it up front.
	if _, err := Run(context.Background(), Options{Replicates: 2}, []Job{fakeJob("a@r1", "")}); err == nil {
		t.Error("replicate-suffixed job key accepted under Replicates > 1")
	}

	// A replicate count whose expansion exceeds maxJobs, or overflows an
	// int, fails before anything is allocated, run or checkpointed.
	ckpt := filepath.Join(t.TempDir(), "huge.json")
	for _, huge := range []int{maxJobs/2 + 1, 100_000_000_000, math.MaxInt} {
		if _, err := Run(context.Background(), Options{Replicates: huge, Checkpoint: ckpt}, jobs); err == nil || !strings.Contains(err.Error(), "limit") {
			t.Errorf("Replicates %d over 2 jobs: err = %v, want the job limit", huge, err)
		}
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("refused sweep touched its checkpoint: %v", err)
	}
}

// TestRunReplicatesResume: a store written by a single-replicate sweep
// seeds a replicated rerun of the same jobs — replicate 0 restores, only
// the new replicates simulate.
func TestRunReplicatesResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	jobs := fakeJobs(4)
	if _, err := Run(context.Background(), Options{Parallelism: 2, Checkpoint: ckpt}, jobs); err != nil {
		t.Fatal(err)
	}
	var executed atomic.Int64
	for i := range jobs {
		inner := jobs[i].Run
		jobs[i].Run = func(seed uint64) (cmp.RunResult, error) {
			executed.Add(1)
			return inner(seed)
		}
	}
	var last Progress
	res, err := Run(context.Background(), Options{Parallelism: 2, Checkpoint: ckpt, Replicates: 3,
		OnProgress: func(p Progress) { last = p }}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := executed.Load(); n != 8 {
		t.Errorf("replicated resume executed %d jobs, want 8 (4 restored from the single-replicate store)", n)
	}
	if last.Restored != 4 || last.Done != 12 {
		t.Errorf("final progress %+v, want restored=4 done=12", last)
	}
	if len(res) != 12 {
		t.Errorf("%d results, want 12", len(res))
	}
}
