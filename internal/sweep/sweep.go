// Package sweep is the reusable evaluation-sweep engine: it runs a batch of
// independent simulation jobs across a worker pool, checkpoints every
// completed result to a JSON results store so an interrupted sweep resumes
// without redoing finished work, and reports structured progress.
//
// Determinism is the package's core contract. Each job's RNG seed is derived
// from the job's identity (its SeedKey) via stats.Mix64, never from wall
// time or scheduling, so a sweep's results are bit-identical regardless of
// worker count or completion order. Jobs that must be compared pair-wise
// (the same workload under different schemes) share a SeedKey and therefore
// see identical instruction streams.
//
// The engine also carries the failure model a long-running service needs
// (DESIGN.md §"Failure model"): job panics are recovered into errors
// instead of taking down the process, Options.FailurePolicy chooses between
// failing fast and running every job, Options.Retry re-runs failed jobs
// with the same identity-derived seed (retries only help transient faults —
// a deterministic failure fails identically every attempt), and
// cancellation through the Context drains and checkpoints in-flight work
// before returning.
//
// The engine is the foundation under internal/experiments.Evaluate,
// cmd/experiments and cmd/snugsim; DESIGN.md §"Sweep engine" documents the
// architecture.
package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/stats"
)

// Job is one unit of work: a deterministic simulation identified by Key.
type Job struct {
	// Key uniquely identifies the job inside a sweep and keys its
	// checkpointed result (e.g. "4xammp/SNUG"). Keys must be stable across
	// program runs for resumption to work.
	Key string
	// SeedKey selects the job's RNG seed; it defaults to Key. Jobs sharing
	// a SeedKey receive identical seeds — the evaluation uses this to run
	// every scheme of one workload combination over the same instruction
	// streams, keeping normalized comparisons paired.
	SeedKey string
	// Run executes the job with the derived seed.
	Run func(seed uint64) (cmp.RunResult, error)
}

// Progress is a point-in-time snapshot of a running sweep.
type Progress struct {
	Done     int    // jobs finished, including restored ones
	Total    int    // jobs in the sweep
	Restored int    // jobs satisfied from the checkpoint store
	Failed   int    // jobs that failed (after retries, under ContinueOnError)
	Key      string // job that just finished ("" for the restore snapshot)
	Elapsed  time.Duration
	// ETA estimates the remaining wall time from the live completion rate.
	// It is zero until a live job finishes, excludes restored jobs (they
	// cost no wall time), and is clamped against small-sample blowups: the
	// first few completions after a large restore are extrapolated at the
	// worker count's steady-state rate rather than the one-sample rate,
	// which would overestimate by up to Parallelism× (see etaFor).
	ETA time.Duration
	// Quarantined counts corrupt checkpoint lines a salvage open moved to
	// <checkpoint>.quarantine (0 outside Options.Salvage).
	Quarantined int
}

// FailurePolicy selects how a sweep responds to a failed job.
type FailurePolicy int

const (
	// FailFast — the default — stops dispatching new jobs at the first
	// failure, lets in-flight jobs finish (their results are still
	// checkpointed), and returns the failure alongside partial results.
	FailFast FailurePolicy = iota
	// ContinueOnError runs every job regardless of failures, checkpoints
	// every success, and returns all failures aggregated into one error
	// (errors.Join, sorted by job key for deterministic rendering). Use it
	// for long sweeps where one bad cell must not abandon the rest.
	ContinueOnError
)

// RetrySpec re-runs failed jobs before declaring them failed.
type RetrySpec struct {
	// Attempts is the number of re-runs after the first failure (0 — the
	// default — disables retry). Every attempt runs with the job's same
	// identity-derived seed, so retries cannot change results: they only
	// help transient faults (a flaky filesystem, an injected fault, an
	// external resource), never deterministic ones, which fail identically
	// every attempt.
	Attempts int
	// Backoff is the sleep before the first retry, doubling per attempt
	// and capped at BackoffCap. Zero retries immediately. The sleep delays
	// scheduling only; it never feeds results (the wallclock contract).
	Backoff time.Duration
}

// BackoffCap bounds the exponential retry backoff.
const BackoffCap = 30 * time.Second

// delay returns the capped exponential backoff before retry attempt a
// (0-based).
func (r RetrySpec) delay(a int) time.Duration {
	if r.Backoff <= 0 {
		return 0
	}
	d := r.Backoff
	for i := 0; i < a && d < BackoffCap; i++ {
		d *= 2
	}
	return min(d, BackoffCap)
}

// Options configures a sweep.
type Options struct {
	// Parallelism is the number of jobs run at once; 0 or negative means
	// runtime.GOMAXPROCS(0). It is not capped at GOMAXPROCS: a value above
	// it runs that many simulations concurrently on fewer processors.
	// Results and checkpoint bytes are identical at every setting.
	Parallelism int
	// BaseSeed is mixed into every job's derived seed, so one knob reseeds
	// the whole sweep without touching job identities.
	BaseSeed uint64
	// Checkpoint is the results-store path. When non-empty, previously
	// completed jobs found in the store are restored instead of rerun, and
	// every newly completed job is appended. Empty disables checkpointing.
	Checkpoint string
	// Salvage opens the checkpoint store in salvage mode (OpenStoreSalvage):
	// corrupt interior lines are quarantined to <Checkpoint>.quarantine and
	// their jobs rerun, instead of the open refusing. Progress.Quarantined
	// reports the count.
	Salvage bool
	// Sync is the checkpoint fsync cadence: every Nth completed job is
	// flushed to stable storage (0 leaves durability to the OS, the
	// historic behavior). It bounds how much finished work a power loss
	// can cost; results are identical at every setting.
	Sync int
	// Fingerprint identifies the configuration behind this sweep's results
	// (see the Fingerprint function). It is written into a fresh checkpoint
	// store and checked on resume: restoring results produced under a
	// different configuration is an error, not a silent mix. Empty skips
	// the check.
	Fingerprint string
	// Replicates expands every job into this many independently-seeded
	// replicates (0 and 1 both mean a single run). Replicate 0 keeps the
	// job's key and seed byte-identical to a non-replicated sweep, so
	// existing checkpoint stores keep resuming; replicate r > 0 runs under
	// key ReplicateKey(Key, r) ("key@r3") with a seed derived from the
	// suffixed seed key, so jobs sharing a SeedKey stay paired within each
	// replicate while replicates draw independent streams. The expanded
	// sweep may hold at most 1<<20 jobs (maxJobs); Run refuses a larger
	// one before allocating it.
	Replicates int
	// FailurePolicy selects the response to job failures (default FailFast).
	FailurePolicy FailurePolicy
	// Retry re-runs failed jobs (and failed checkpoint writes) before
	// declaring them failed. The zero value disables retry.
	Retry RetrySpec
	// PutHook, when set, runs before every checkpoint write with the job's
	// key; a non-nil return is treated as a checkpoint-write failure
	// (retried under Retry like a real one). It exists for deterministic
	// fault injection (internal/faults) and tests.
	PutHook func(key string) error
	// OnProgress, when set, is called once after restoration and once per
	// completed job. It runs on the collector goroutine; callbacks must not
	// block for long.
	OnProgress func(Progress)
}

// JobError wraps a job failure with the identity of the job that produced
// it, so callers can surface which sweep unit went wrong.
type JobError struct {
	Key string
	Err error
}

func (e *JobError) Error() string { return fmt.Sprintf("sweep: job %s: %v", e.Key, e.Err) }

// Unwrap exposes the original job error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// PanicError is a job panic recovered by a sweep worker: the panicking job
// fails like any erroring one — carrying the panic value and stack for
// diagnosis — instead of taking down the process and every queued cell
// with it.
type PanicError struct {
	Value any
	Stack []byte // debug.Stack() captured at the recovery point
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("job panicked: %v\n%s", e.Value, e.Stack)
}

// JobErrors extracts every *JobError from a sweep failure — a single
// JobError, a ContinueOnError aggregate, or either wrapped further — in
// the order the aggregate carries them (sorted by job key).
func JobErrors(err error) []*JobError {
	var out []*JobError
	var walk func(error)
	walk = func(err error) {
		if err == nil {
			return
		}
		if je, ok := err.(*JobError); ok {
			out = append(out, je)
			return
		}
		switch u := err.(type) {
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				walk(e)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	return out
}

// JobSeed derives the RNG seed for a job identity: Mix64 over the base seed
// combined with the hashed identity. Pure function of (base, seedKey).
func JobSeed(base uint64, seedKey string) uint64 {
	return stats.Mix64(base ^ stats.HashString(seedKey))
}

// maxJobs bounds a sweep's job count after replicate expansion, so a huge
// Replicates is an error instead of an out-of-memory crash. It still
// allows over 5,000 replicates of the 189-job Figure 9 matrix.
const maxJobs = 1 << 20

// fingerprintVersion is the results-schema generation every checkpoint
// fingerprint carries. Bump it when a release changes what any job
// computes (a simulator or metrics change that alters stored results), so
// stale stores are refused on resume instead of silently mixed with fresh
// runs.
const fingerprintVersion = 1

// Fingerprint is the checkpoint header of a sweep of kind ("evaluate",
// "scaling", "snugsim") whose jobs run cycles cycles on cfg: it names the
// results-schema version, the run length, the workload when the sweep has
// one fixed benchmark list (snugsim; empty otherwise) and a hash of the
// system configuration, which embeds the base seed. Everything that
// selects which jobs run — classes, schemes, replicates, a study's core
// counts — stays out, so a store warmed by a smaller sweep serves a wider
// one. For example "evaluate/v1/cycles=20000/cfg=ebba1b660fbe28ea" or
// "snugsim/v1/cycles=50000/workload=gzip+gzip+gzip+gzip/cfg=...".
func Fingerprint(kind string, cycles int64, workload string, cfg config.System) (string, error) {
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("sweep: fingerprint config: %w", err)
	}
	fp := fmt.Sprintf("%s/v%d/cycles=%d", kind, fingerprintVersion, cycles)
	if workload != "" {
		fp += "/workload=" + workload
	}
	return fmt.Sprintf("%s/cfg=%016x", fp, stats.HashString(string(cfgJSON))), nil
}

// repSep introduces a replicate suffix in keys and seed keys. "@r0" never
// appears: replicate 0 IS the unsuffixed identity.
const repSep = "@r"

// ReplicateKey returns the key of replicate r of key. Replicate 0 is the
// key itself — byte-identical to a non-replicated sweep, so single-replicate
// runs resume today's checkpoint stores unchanged — and r > 0 appends
// "@r<r>" ("4xammp/SNUG@r3"). It panics on a negative replicate.
func ReplicateKey(key string, r int) string {
	if r < 0 {
		panic(fmt.Sprintf("sweep: negative replicate %d", r))
	}
	if r == 0 {
		return key
	}
	return key + repSep + strconv.Itoa(r)
}

// SplitReplicateKey splits a possibly replicate-suffixed key into its base
// key and replicate index: "4xammp/SNUG@r3" → ("4xammp/SNUG", 3), and a key
// without a well-formed suffix is replicate 0 of itself.
func SplitReplicateKey(key string) (string, int) {
	i := strings.LastIndex(key, repSep)
	if i < 0 {
		return key, 0
	}
	r, err := strconv.Atoi(key[i+len(repSep):])
	if err != nil || r <= 0 {
		return key, 0
	}
	return key[:i], r
}

// expandReplicates turns each job into reps independently-seeded copies,
// replicate-major (all of replicate 0, then replicate 1, ...) so a resumed
// single-replicate store satisfies a contiguous prefix.
func expandReplicates(jobs []Job, reps int) []Job {
	out := make([]Job, 0, len(jobs)*reps)
	for r := 0; r < reps; r++ {
		for _, j := range jobs {
			rj := j
			rj.Key = ReplicateKey(j.Key, r)
			if j.SeedKey != "" {
				// An explicit seed key gets the same suffix, keeping jobs
				// that share one (paired comparisons) paired per replicate.
				// An empty seed key needs nothing: it defaults to the
				// already-suffixed Key at run time.
				rj.SeedKey = ReplicateKey(j.SeedKey, r)
			}
			out = append(out, rj)
		}
	}
	return out
}

// etaFor estimates the remaining wall time of a sweep. The live completion
// rate — live jobs finished per elapsed wall second — is the estimator
// (restored jobs cost no wall time, so they are excluded from both sides).
// Before the worker pipeline fills, that rate undercounts: the first live
// completion arrives after one full job duration while up to par jobs have
// been running the whole time, so extrapolating from live alone
// overestimates the ETA by up to par× (the "wild first ETA" after a large
// restore). The denominator is therefore clamped from below to the number
// of jobs that must have been in flight, min(par, live+remaining), which
// equals the steady-state completion count per job duration; once live
// completions exceed it, the measured rate takes over.
func etaFor(elapsed time.Duration, done, restored, total, par int) time.Duration {
	live := done - restored
	remaining := total - done
	if live <= 0 || remaining <= 0 {
		return 0
	}
	denom := live
	if inFlight := min(par, live+remaining); inFlight > denom {
		denom = inFlight
	}
	eta := time.Duration(float64(elapsed) / float64(denom) * float64(remaining))
	if eta < 0 {
		return 0
	}
	return eta
}

// Run executes the sweep and returns results keyed by Job.Key. Failures
// follow Options.FailurePolicy: under FailFast (the default) the first job
// failure stops new dispatches, in-flight jobs finish and checkpoint, and
// the *JobError returns alongside the partial results; under
// ContinueOnError every job runs and all failures return aggregated.
// Canceling ctx stops dispatching, drains and checkpoints in-flight jobs,
// and returns an error wrapping context.Canceled alongside the partial
// results — a resumed run with the same Checkpoint continues where this
// one stopped.
func Run(ctx context.Context, opts Options, jobs []Job) (map[string]cmp.RunResult, error) {
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	reps := max(opts.Replicates, 1)
	if len(jobs) > 0 && reps > maxJobs/len(jobs) {
		return nil, fmt.Errorf("sweep: %d jobs × %d replicates exceeds the %d-job limit", len(jobs), reps, maxJobs)
	}
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if j.Key == "" {
			return nil, fmt.Errorf("sweep: job with empty key")
		}
		if seen[j.Key] {
			return nil, fmt.Errorf("sweep: duplicate job key %q", j.Key)
		}
		seen[j.Key] = true
		if reps > 1 {
			// A key that already parses as a replicate would collide with an
			// expanded one ("a@r1" vs replicate 1 of "a").
			if base, r := SplitReplicateKey(j.Key); r != 0 {
				return nil, fmt.Errorf("sweep: job key %q looks like replicate %d of %q; replicate-suffixed keys are reserved under Replicates > 1", j.Key, r, base)
			}
		}
	}
	if reps > 1 {
		jobs = expandReplicates(jobs, reps)
	}

	results := make(map[string]cmp.RunResult, len(jobs))
	var store *Store
	if opts.Checkpoint != "" {
		var err error
		if opts.Salvage {
			store, err = OpenStoreSalvage(opts.Checkpoint)
		} else {
			store, err = OpenStore(opts.Checkpoint)
		}
		if err != nil {
			return nil, err
		}
		store.SyncEvery(opts.Sync)
		defer store.Close() // error paths; the happy path closes (and checks) below
		if opts.Fingerprint != "" {
			switch fp := store.Fingerprint(); {
			case fp == "" && store.Len() > 0:
				return nil, fmt.Errorf("sweep: checkpoint %s has results but no configuration fingerprint; refusing to resume (use a fresh store)", opts.Checkpoint)
			case fp == "":
				if err := store.SetFingerprint(opts.Fingerprint); err != nil {
					return nil, err
				}
			case fp != opts.Fingerprint:
				return nil, fmt.Errorf("sweep: checkpoint %s was produced under a different configuration (%s, want %s); refusing to mix results", opts.Checkpoint, fp, opts.Fingerprint)
			}
		}
	}

	var pending []Job
	for _, j := range jobs {
		if store != nil {
			if r, ok := store.Get(j.Key); ok {
				results[j.Key] = r
				continue
			}
		}
		pending = append(pending, j)
	}
	restored := len(results)
	done := restored
	failed := 0
	quarantined := 0
	if store != nil {
		quarantined = store.Quarantined()
	}
	// The wall clock below feeds ONLY the Progress callback (Elapsed/ETA
	// shown to humans); job seeds, results and checkpoint bytes are pure
	// functions of job identity. TestElapsedNeverFeedsResults pins this.
	start := time.Now() //snug:allow wallclock progress/ETA reporting only, never feeds results
	emit := func(key string) {
		if opts.OnProgress == nil {
			return
		}
		p := Progress{
			Done: done, Total: len(jobs), Restored: restored, Failed: failed,
			Quarantined: quarantined,
			Key:         key, Elapsed: time.Since(start), //snug:allow wallclock progress/ETA reporting only, never feeds results
		}
		p.ETA = etaFor(p.Elapsed, done, restored, len(jobs), par)
		opts.OnProgress(p)
	}
	emit("")

	type outcome struct {
		key string
		res cmp.RunResult
		err error
	}
	jobCh := make(chan Job)
	outCh := make(chan outcome)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				seedKey := j.SeedKey
				if seedKey == "" {
					seedKey = j.Key
				}
				res, err := runJob(ctx, j, JobSeed(opts.BaseSeed, seedKey), opts.Retry)
				outCh <- outcome{j.Key, res, err}
			}
		}()
	}
	go func() {
		defer close(jobCh)
		for _, j := range pending {
			// An explicit pre-send check: select chooses randomly among ready
			// cases, so without it an already-canceled sweep could still
			// dispatch work.
			if ctx.Err() != nil {
				return
			}
			select {
			case jobCh <- j:
			case <-stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outCh)
	}()

	var jobErrs []*JobError
	fail := func(e *JobError) {
		jobErrs = append(jobErrs, e)
		failed++
		if opts.FailurePolicy == FailFast {
			halt()
		}
	}
	for o := range outCh {
		if o.err != nil {
			fail(&JobError{Key: o.key, Err: o.err})
			emit(o.key)
			continue
		}
		// The job itself succeeded, so its result and progress accounting
		// stand even if checkpointing it below fails — the computation is
		// done and callers can still use it alongside the error.
		results[o.key] = o.res
		done++
		emit(o.key)
		if store != nil {
			if err := putJob(ctx, store, opts, o.key, o.res); err != nil {
				// Wrap with the job identity like any other job failure, so
				// callers (experiments.evalErr) keep combo/run context.
				fail(&JobError{Key: o.key, Err: err})
			}
		}
	}

	// Failures surface sorted by job key: completion order varies with
	// scheduling, and a deterministic aggregate is one more thing two runs
	// of the same sweep agree on.
	slices.SortFunc(jobErrs, func(a, b *JobError) int { return strings.Compare(a.Key, b.Key) })
	var errs []error
	if ctx.Err() != nil {
		errs = append(errs, fmt.Errorf("sweep: interrupted (in-flight jobs drained and checkpointed): %w", context.Cause(ctx)))
	}
	for _, e := range jobErrs {
		errs = append(errs, e)
	}
	if store != nil {
		// Surface the close error on the happy path: a buffered write that
		// only fails at close is a checkpoint entry that never hit disk.
		if err := store.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	switch len(errs) {
	case 0:
		return results, nil
	case 1:
		return results, errs[0]
	default:
		return results, errors.Join(errs...)
	}
}

// runJob executes one job — panics recovered into *PanicError — retrying
// failures per the RetrySpec with the job's same identity-derived seed.
// A canceled ctx abandons remaining retries and returns the last failure.
func runJob(ctx context.Context, j Job, seed uint64, retry RetrySpec) (cmp.RunResult, error) {
	attempt := func() (res cmp.RunResult, err error) {
		defer func() {
			if v := recover(); v != nil {
				err = &PanicError{Value: v, Stack: debug.Stack()}
			}
		}()
		return j.Run(seed)
	}
	res, err := attempt()
	for a := 0; err != nil && a < retry.Attempts; a++ {
		if !backoffSleep(ctx, retry.delay(a)) {
			break
		}
		res, err = attempt()
	}
	return res, err
}

// putJob checkpoints one result, routing it through the PutHook fault
// point and retrying failures (hook or real write) per the RetrySpec: a
// transient checkpoint-write failure costs a retry, not the sweep.
func putJob(ctx context.Context, store *Store, opts Options, key string, res cmp.RunResult) error {
	put := func() error {
		if opts.PutHook != nil {
			if err := opts.PutHook(key); err != nil {
				return err
			}
		}
		return store.Put(key, res)
	}
	err := put()
	for a := 0; err != nil && a < opts.Retry.Attempts; a++ {
		if !backoffSleep(ctx, opts.Retry.delay(a)) {
			break
		}
		err = put()
	}
	return err
}

// backoffSleep waits d before the next retry attempt, abandoning the wait
// (returning false) if ctx is canceled first. The sleep delays scheduling
// only — results are pure functions of job identity, retried or not — so
// the wall-clock timer is contract-clean.
func backoffSleep(ctx context.Context, d time.Duration) bool {
	if ctx.Err() != nil {
		return false
	}
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d) //snug:allow wallclock retry backoff sleep; delays scheduling only, never feeds results
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
