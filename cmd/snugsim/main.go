// Command snugsim runs one workload combination under one or more LLC
// management schemes and reports per-core and scheme-level statistics.
// Runs go through the sweep engine (internal/sweep): every scheme of one
// workload sees the same seed-derived instruction streams, so side-by-side
// scheme numbers are paired — even across separate invocations.
//
// Schemes are full spec strings (see schemes.Parse): "SNUG", "L2P" or
// parameterized specs like "CC(75%)". Workloads are a per-core benchmark
// list, a Table 8 combo name, or "Nx<bench>" for an N-core stress test; the
// system widens to the workload's core count automatically.
//
// Usage:
//
//	snugsim -scheme SNUG -workload ammp,parser,swim,mesa -cycles 2000000
//	snugsim -scheme L2P,CC(75%),SNUG -workload 4xammp  # paired comparison
//	snugsim -scheme L2P,SNUG -workload 4xammp -reps 5  # mean ±95% CI
//	snugsim -scheme SNUG -workload 8xammp              # 8-core scale-out
//	snugsim -replay=false ...                          # regenerate streams live per scheme
//	snugsim -scheme L2P,SNUG -workload 4xammp -out runs.jsonl  # checkpoint completed runs
//	snugsim ... -out runs.jsonl -resume                # continue an interrupted sweep
//	snugsim ... -failpolicy continue -retries 3        # run everything, retry failures
//	snugsim ... -out runs.jsonl -resume -salvage       # quarantine corrupt checkpoint lines
//	snugsim ... -inject panic:0.02,err:0.05,putfail:0.01  # deterministic chaos testing
//	snugsim -list
//
// Scheme comparisons record the workload's instruction streams once and
// replay them to every scheme (-replay, default on) — the same streams the
// live generators would produce, so results are bit-identical either way.
//
// On SIGINT/SIGTERM the sweep stops dispatching, drains and checkpoints
// in-flight runs, prints a resume hint, and exits 130; a second signal
// exits immediately. Exit codes: 0 success, 1 error, 3 completed with job
// failures under -failpolicy continue, 130 interrupted. See DESIGN.md
// "Failure model".
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"snug/internal/cli"
	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/faults"
	"snug/internal/prof"
	"snug/internal/stats"
	"snug/internal/sweep"
	"snug/internal/trace"
	"snug/internal/workloads"
)

func main() {
	ctx, stop := cli.SignalContext("snugsim", os.Stderr)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if errors.Is(err, flag.ErrHelp) {
		return // -h/-help: usage already printed, a successful exit
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "snugsim:", err)
		os.Exit(cli.ExitCode(err))
	}
}

// run executes the command with the given arguments; main is a thin
// wrapper so tests can drive the full flag-to-output path. Canceling ctx
// (main wires it to SIGINT/SIGTERM) drains and checkpoints in-flight runs
// before run returns.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("snugsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scheme := fs.String("scheme", "SNUG",
		"L2 scheme spec (L2P, L2S, CC, CC(75%), DSR or SNUG), or a comma-separated list to compare")
	workload := fs.String("workload", "ammp,parser,swim,mesa",
		"comma-separated benchmark per core, a Table 8 combo name, or Nx<bench>")
	cycles := fs.Int64("cycles", 5_000_000, "cycles to simulate")
	ccpct := fs.Int("ccpct", 100, "spill probability for bare \"CC\" specs, in percent (0,25,50,75,100)")
	par := fs.Int("par", 0, "concurrent simulations when comparing schemes (0 = GOMAXPROCS); not capped at GOMAXPROCS, and results never depend on it")
	reps := fs.Int("reps", 1, "independently-seeded replicates per scheme; >1 reports mean ±95% CI")
	scale := fs.Bool("testscale", true, "use the scaled test system (64-set slices); false = full Table 4 system")
	replay := fs.Bool("replay", true, "record the workload's instruction streams once and replay them to every compared scheme (bit-identical results); false regenerates streams live per run")
	seed := fs.Uint64("seed", 0, "override simulation seed (0 = default)")
	out := fs.String("out", "", "sweep results store: completed runs are checkpointed here as JSON lines")
	resume := fs.Bool("resume", false, "resume from -out, skipping runs already checkpointed")
	failpolicy := fs.String("failpolicy", "fast", "response to failed runs: \"fast\" stops at the first failure, \"continue\" runs every scheme and aggregates failures (exit code 3)")
	retries := fs.Int("retries", 0, "re-run a failed run up to this many times with the same seed (transient faults only; deterministic failures repeat)")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "initial delay before a retry, doubling per attempt (capped)")
	salvage := fs.Bool("salvage", false, "open the -out checkpoint in salvage mode: quarantine corrupt lines to <out>.quarantine and rerun their jobs instead of refusing to resume")
	syncEvery := fs.Int("sync", 0, "fsync the checkpoint every N completed runs (0 = leave durability to the OS)")
	inject := fs.String("inject", "", "deterministic fault injection spec, e.g. \"panic:0.02,err:0.05,putfail:0.01\" (chaos testing; results are unaffected)")
	list := fs.Bool("list", false, "list benchmarks, combos and schemes, then exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	if *list {
		fmt.Fprintln(stdout, "benchmarks:", strings.Join(trace.Names(), " "))
		fmt.Fprintln(stdout, "schemes:   ", strings.Join(cmp.SchemeNames(), " "))
		fmt.Fprintln(stdout, "combos (Table 8):")
		for _, c := range workloads.Table8() {
			fmt.Fprintf(stdout, "  %-3s %s\n", c.Class, c.Name)
		}
		return nil
	}

	if *reps < 1 {
		return fmt.Errorf("-reps %d: replicate count must be at least 1", *reps)
	}
	policy, err := cli.ParseFailurePolicy(*failpolicy)
	if err != nil {
		return err
	}
	if *retries < 0 {
		return fmt.Errorf("-retries %d: retry count must be non-negative", *retries)
	}
	injectSpec, err := faults.ParseSpec(*inject)
	if err != nil {
		return err
	}
	if *resume && *out == "" {
		return fmt.Errorf("-resume requires -out")
	}
	if *salvage && *out == "" {
		return fmt.Errorf("-salvage requires -out")
	}
	if *out != "" && !*resume {
		// Never silently destroy prior results (same contract as
		// cmd/experiments).
		if st, err := os.Stat(*out); err == nil && st.Size() > 0 {
			return fmt.Errorf("checkpoint %s already exists; pass -resume to continue it or delete it for a fresh sweep", *out)
		}
	}
	cfg := config.Default()
	if *scale {
		cfg = config.TestScale()
	}
	cfg.CC.SpillPercent = *ccpct
	if *seed != 0 {
		cfg.Seed = *seed
	}

	bench, err := resolveWorkload(*workload, cfg)
	if err != nil {
		return err
	}
	// Widen the system to the workload: "8xammp" runs on the 8-core
	// scale-out configuration without further flags.
	if len(bench) != cfg.Cores {
		if cfg, err = config.WithCores(cfg, len(bench)); err != nil {
			return fmt.Errorf("workload %q: %w", *workload, err)
		}
	}

	specs := splitSpecs(*scheme)
	seedKey := strings.Join(bench, "+") // one stream per workload, shared by every scheme

	// Record/replay across the compared schemes: every scheme of one
	// replicate sees the same seed (shared SeedKey), so its streams are
	// synthesized once and replayed. Seeds are derivable up front — the
	// sweep engine's seed derivation is a pure function of the replicate-
	// suffixed seed key — so the recordings are simply keyed by seed.
	// A single run has nothing to share, so it stays on the live path
	// (identical streams either way).
	recordings := map[uint64][]*trace.Recording{}
	if *replay && len(specs)*(*reps) > 1 {
		for r := 0; r < *reps; r++ {
			seed := sweep.JobSeed(cfg.Seed, sweep.ReplicateKey(seedKey, r))
			c := cfg
			c.Seed = seed
			streams, err := cmp.WorkloadStreams(c, bench, cmp.PhaseRefs(*cycles))
			if err != nil {
				return err
			}
			recordings[seed] = trace.RecordAll(streams)
		}
	}

	var jobs []sweep.Job
	for _, s := range specs {
		s := s
		jobs = append(jobs, sweep.Job{
			Key:     s,
			SeedKey: seedKey,
			Run: func(jobSeed uint64) (cmp.RunResult, error) {
				c := cfg
				c.Seed = jobSeed
				if recs, ok := recordings[jobSeed]; ok {
					return cmp.RunStreams(c, s, trace.Replays(recs), *cycles)
				}
				return cmp.RunWorkload(c, s, bench, *cycles)
			},
		})
	}
	fp, err := storeFingerprint(cfg, bench, *cycles)
	if err != nil {
		return err
	}
	results, err := sweep.Run(ctx, sweep.Options{
		Parallelism: *par, BaseSeed: cfg.Seed, Replicates: *reps,
		Checkpoint: *out, Salvage: *salvage, Sync: *syncEvery, Fingerprint: fp,
		FailurePolicy: policy,
		Retry:         sweep.RetrySpec{Attempts: *retries, Backoff: *backoff},
		PutHook:       injectSpec.PutHook(cfg.Seed),
	}, injectSpec.Wrap(cfg.Seed, jobs))
	if err != nil {
		cli.ResumeHint(err, stderr, "snugsim", *out)
		return cli.WrapCompleted(err, policy == sweep.ContinueOnError)
	}

	if *reps > 1 {
		// Replicated runs summarize to interval statistics: per-core detail
		// of a single stream would misrepresent the sample.
		fmt.Fprintf(stdout, "workload=%s cores=%d cycles=%d reps=%d (mean ±95%% CI)\n",
			*workload, len(bench), *cycles, *reps)
		puts := make(map[string][]float64, len(specs))
		for _, s := range specs {
			puts[s] = make([]float64, *reps)
			var spills, retrHits int64
			for r := 0; r < *reps; r++ {
				res := results[sweep.ReplicateKey(s, r)]
				puts[s][r] = res.Throughput()
				spills += res.Report.Spills
				retrHits += res.Report.RetrievalHits
			}
			n := float64(*reps)
			fmt.Fprintf(stdout, "  %-9s throughput=%s avgSpills=%.1f avgRetrHits=%.1f\n",
				s, stats.MeanCI(puts[s]), float64(spills)/n, float64(retrHits)/n)
		}
		// Schemes share streams within each replicate, so the per-replicate
		// throughput deltas against the first scheme cancel the common
		// stream noise — usually a far tighter interval than the marginals.
		for _, s := range specs[1:] {
			delta, err := stats.PairedDelta(puts[s], puts[specs[0]])
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  Δ %s vs %s: %s (paired)\n", s, specs[0], delta)
		}
		return nil
	}

	if len(specs) > 1 {
		fmt.Fprintf(stdout, "workload=%s cores=%d cycles=%d\n", *workload, len(bench), *cycles)
		for _, s := range specs {
			r := results[s]
			fmt.Fprintf(stdout, "  %-9s throughput=%.4f spills=%-7d retrHits=%-7d dram=%d\n",
				s, r.Throughput(), r.Report.Spills, r.Report.RetrievalHits, r.Report.DRAM.Reads)
		}
		return nil
	}

	res := results[specs[0]]
	fmt.Fprintf(stdout, "scheme=%s cycles=%d throughput=%.4f\n", res.Scheme, res.Cycles, res.Throughput())
	for i, c := range res.Cores {
		src := res.Report.PerCore[i]
		fmt.Fprintf(stdout, "core %d %-8s IPC=%.4f instr=%-9d L1miss=%.2f%%  L2[local=%d remote=%d wb=%d dram=%d]\n",
			i, c.Benchmark, c.IPC, c.Instructions, c.L1MissRate()*100,
			src.BySource[0], src.BySource[1], src.BySource[2], src.BySource[3])
	}
	r := res.Report
	fmt.Fprintf(stdout, "spills=%d (dropped=%d) retrievals=%d hits=%d stranded=%d\n",
		r.Spills, r.SpillNoTaker, r.Retrievals, r.RetrievalHits, r.StrandedDropped)
	fmt.Fprintf(stdout, "bus: snoop=%d data=%d writeback=%d busy=%d wait=%d\n",
		r.Bus.Count(0), r.Bus.Count(1), r.Bus.Count(2), r.Bus.BusyCycles, r.Bus.WaitCycles)
	fmt.Fprintf(stdout, "dram: reads=%d writes=%d\n", r.DRAM.Reads, r.DRAM.Writes)
	return nil
}

// storeFingerprint identifies everything that changes a run's stored
// result — the system configuration (seed, geometry, spill percent), the
// workload and the run length — so a -out checkpoint refuses to mix
// results across configurations on -resume. Scheme specs are checkpoint
// keys, not fingerprint material: a store warmed with some schemes serves
// a later comparison adding more.
func storeFingerprint(cfg config.System, bench []string, cycles int64) (string, error) {
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("fingerprint config: %w", err)
	}
	return fmt.Sprintf("snugsim/v1/cycles=%d/workload=%s/cfg=%016x",
		cycles, strings.Join(bench, "+"), stats.HashString(string(cfgJSON))), nil
}

// splitSpecs splits a comma-separated scheme list into trimmed spec
// strings without breaking inside a spec's argument list: "CC(75%),SNUG"
// is two specs, and a future multi-argument "X(a,b),SNUG" stays intact
// (the spec grammar allows NAME(arg,arg,...)).
func splitSpecs(s string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	return append(out, strings.TrimSpace(s[start:]))
}

// resolveWorkload accepts "a,b,c,d", a Table 8 combo name, or "Nxbench"
// (e.g. "4xammp", "8xmcf") for an N-core stress test on base widened to N
// cores.
func resolveWorkload(w string, base config.System) ([]string, error) {
	for _, c := range workloads.Table8() {
		if c.Name == w {
			return c.Cores, nil
		}
	}
	if pre, bench, ok := strings.Cut(w, "x"); ok && !strings.Contains(w, ",") {
		if n, err := strconv.Atoi(pre); err == nil {
			// Check the width before allocating n names, so a huge N is
			// a config error instead of an out-of-memory crash.
			if _, err := config.WithCores(base, n); err != nil {
				return nil, fmt.Errorf("workload %q: %w", w, err)
			}
			if _, err := trace.ByName(bench); err != nil {
				return nil, err
			}
			out := make([]string, n)
			for i := range out {
				out[i] = bench
			}
			return out, nil
		}
	}
	parts := strings.Split(w, ",")
	for _, p := range parts {
		if _, err := trace.ByName(p); err != nil {
			return nil, err
		}
	}
	return parts, nil
}
