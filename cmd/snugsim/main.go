// Command snugsim runs one workload combination under one or more LLC
// management schemes and reports per-core and scheme-level statistics.
// Runs go through the sweep engine (internal/sweep): every scheme of one
// workload sees the same seed-derived instruction streams, so side-by-side
// scheme numbers are paired — even across separate invocations.
//
// Schemes are full spec strings (see schemes.Parse): "SNUG", "L2P" or
// parameterized specs like "CC(75%)". Every spec is parsed before anything
// runs, and its canonical form labels the run and keys its store line, so
// "CC(75)" and "CC(75%)" are one scheme. Workloads are a per-core benchmark
// list, a Table 8 combo name, or "Nx<bench>" for an N-core stress test; the
// system widens to the workload's core count automatically.
//
// Usage:
//
//	snugsim -scheme SNUG -workload ammp,parser,swim,mesa -cycles 2000000
//	snugsim -scheme L2P,CC(75%),SNUG -workload 4xammp  # paired comparison
//	snugsim -scheme L2P,SNUG -workload 4xammp -reps 5  # mean ±95% CI
//	snugsim -scheme SNUG -workload 8xammp              # 8-core scale-out
//	snugsim -scheme L2P,SNUG -workload 4xammp -out runs.jsonl  # checkpoint completed runs
//	snugsim ... -out runs.jsonl -resume                # continue an interrupted sweep
//	snugsim ... -failpolicy continue -retries 3        # run everything, retry failures
//	snugsim ... -out runs.jsonl -resume -salvage       # quarantine corrupt checkpoint lines
//	snugsim ... -inject panic:0.02,err:0.05,putfail:0.01  # deterministic chaos testing
//	snugsim -list
//
// Scheme comparisons run the workload's instruction streams through the
// cores' front ends once per replicate and replay the outcomes to every
// scheme (cmp.StreamCache), so results are bit-identical to separate
// single-scheme runs.
//
// On SIGINT/SIGTERM the sweep stops dispatching, drains and checkpoints
// in-flight runs, prints a resume hint, and exits 130; a second signal
// exits immediately. Exit codes: 0 success, 1 error, 3 completed with job
// failures under -failpolicy continue, 130 interrupted. See DESIGN.md
// "Failure model".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"snug/internal/cli"
	"snug/internal/config"
	"snug/internal/experiments"
	"snug/internal/schemes"
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
	sf := cli.NewSweepFlags(fs, 5_000_000)
	scheme := fs.String("scheme", "SNUG",
		"L2 scheme spec (L2P, L2S, CC, CC(75%), DSR or SNUG), or a comma-separated list to compare")
	workload := fs.String("workload", "ammp,parser,swim,mesa",
		"comma-separated benchmark per core, a Table 8 combo name, or Nx<bench>")
	seed := fs.Uint64("seed", 0, "override simulation seed (0 = default)")
	list := fs.Bool("list", false, "list benchmarks, combos and schemes, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if err := sf.Start(); err != nil {
		return err
	}
	defer sf.Stop(&err)

	if *list {
		fmt.Fprintln(stdout, "benchmarks:", strings.Join(trace.Names(), " "))
		fmt.Fprintln(stdout, "schemes:   ", strings.Join(schemes.Names(), " "))
		fmt.Fprintln(stdout, "combos (Table 8):")
		for _, c := range workloads.Table8() {
			fmt.Fprintf(stdout, "  %-3s %s\n", c.Class, c.Name)
		}
		return nil
	}

	opt := sf.Opt
	if *seed != 0 {
		opt.Cfg.Seed = *seed
	}

	bench, err := resolveWorkload(*workload, opt.Cfg)
	if err != nil {
		return err
	}
	// Widen the system to the workload: "8xammp" runs on the 8-core
	// scale-out configuration without further flags.
	if len(bench) != opt.Cfg.Cores {
		if opt.Cfg, err = config.WithCores(opt.Cfg, len(bench)); err != nil {
			return fmt.Errorf("workload %q: %w", *workload, err)
		}
	}
	if err := opt.Cfg.Validate(); err != nil {
		return err
	}
	specs, err := parseSpecs(*scheme)
	if err != nil {
		return err
	}

	// One cell: every scheme of one replicate sees the same seed, so the
	// sweep runs the workload's front ends once per replicate and replays
	// them to every scheme.
	seedKey := strings.Join(bench, "+")
	cell := experiments.Cell{SeedKey: seedKey, Cfg: opt.Cfg, Benchmarks: bench}
	for _, s := range specs {
		cell.Runs = append(cell.Runs, experiments.Run{Key: s, Scheme: s})
	}
	// Scheme specs are checkpoint keys, not fingerprint material: a store
	// warmed with some schemes serves a later comparison adding more.
	results, err := experiments.Sweep(ctx, opt, "snugsim", seedKey, []experiments.Cell{cell})
	if err != nil {
		return sf.Finish(err, stderr)
	}

	if reps := opt.Replicates; reps > 1 {
		// Replicated runs summarize to interval statistics: per-core detail
		// of a single stream would misrepresent the sample.
		fmt.Fprintf(stdout, "workload=%s cores=%d cycles=%d reps=%d (mean ±95%% CI)\n",
			*workload, len(bench), opt.RunCycles, reps)
		puts := make(map[string][]float64, len(specs))
		for _, s := range specs {
			puts[s] = make([]float64, reps)
			var spills, retrHits int64
			for r := 0; r < reps; r++ {
				res := results[sweep.ReplicateKey(s, r)]
				puts[s][r] = res.Throughput()
				spills += res.Report.Spills
				retrHits += res.Report.RetrievalHits
			}
			n := float64(reps)
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
		fmt.Fprintf(stdout, "workload=%s cores=%d cycles=%d\n", *workload, len(bench), opt.RunCycles)
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

// parseSpecs parses a comma-separated scheme list into canonical spec
// strings (schemes.Spec.String), which key, label and build each job, so
// "CC(75)" and "CC(75%)" name one run and one store line. It refuses a
// malformed or unknown spec and a scheme named twice.
func parseSpecs(list string) ([]string, error) {
	var out []string
	for _, text := range splitSpecs(list) {
		spec, err := schemes.Parse(text)
		if err != nil {
			return nil, err
		}
		s := spec.String()
		if slices.Contains(out, s) {
			return nil, fmt.Errorf("-scheme %q names %s twice", list, s)
		}
		out = append(out, s)
	}
	return out, nil
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
