// Command bench runs the repository's headline performance benchmarks
// (internal/bench: SimulatorSpeed, SimulatorSpeedLive, SNUG16Core, the
// CacheOps/BusContention layout microbenchmarks, SchemeSNUG,
// Figure9Throughput) outside `go test`, writing a machine-readable
// baseline so the perf trajectory across PRs lives in version control —
// BENCH_PR4.json is the first point, BENCH_PR9.json the current gate —
// and checking the current machine against a committed baseline as a CI
// regression gate over the rate metrics (sim-cycles/s, ops/s).
//
// Usage:
//
//	bench -out BENCH_PR<n>.json                    # write a new baseline (all benchmarks)
//	bench -out quick.json -bench SimulatorSpeed    # subset
//	bench -check BENCH_PR9.json -tolerance 0.30    # fail if a rate metric regressed >30%
//
// Baselines record the recording host's GOMAXPROCS for reference. Every
// rate-gated benchmark runs on one goroutine, so -check compares them
// across host shapes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"snug/internal/bench"
)

// Result is one benchmark's measurement in the baseline file.
type Result struct {
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"` // ReportMetric extras, e.g. sim-cycles/s
}

// Baseline is the file schema. Benchmarks is keyed by internal/bench name;
// json.Marshal sorts map keys, so output is stable for version control.
// Keys the schema does not name (BENCH_PR9.json's
// "benchmarks@gomaxprocs=4" section) are ignored on decode.
type Baseline struct {
	GoVersion  string            `json:"go_version"`
	GOARCH     string            `json:"goarch"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// readBaseline decodes the baseline file at path, as -check reads it.
func readBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("parse %s: %w", path, err)
	}
	return b, nil
}

// simCyclesMetric is the headline regression-gated metric; opsMetric gates
// the layout microbenchmarks (CacheOps, BusContention). Both are rates —
// higher is better — and -check compares whichever a benchmark reports.
const (
	simCyclesMetric = "sim-cycles/s"
	opsMetric       = "ops/s"
)

// gateMetrics lists the rate metrics -check compares, in display order.
var gateMetrics = []string{simCyclesMetric, opsMetric}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return // -h/-help: usage already printed, a successful exit
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run executes the command with the given arguments; main is a thin
// wrapper so tests can drive the full flag-to-output path.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "write a baseline JSON file with every selected benchmark's results")
	check := fs.String("check", "", "baseline JSON file to check the current machine against")
	names := fs.String("bench", "", "comma-separated benchmark subset (default: all for -out, SimulatorSpeed for -check)")
	tolerance := fs.Float64("tolerance", 0.30, "allowed fractional sim-cycles/s regression in -check mode (runner noise)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *out != "" && *check != "" {
		return fmt.Errorf("at most one of -out or -check is allowed")
	}
	if *out == "" && *check == "" {
		return fmt.Errorf("one of -out or -check is required")
	}

	// In check mode, load the baseline before spending benchmark time, so
	// a missing or corrupt file fails immediately.
	var base Baseline
	if *check != "" {
		var err error
		if base, err = readBaseline(*check); err != nil {
			return err
		}
	}

	var selected []string
	switch {
	case *names != "":
		selected = strings.Split(*names, ",")
	case *check != "":
		selected = []string{"SimulatorSpeed"}
	default:
		for _, e := range bench.ByName {
			selected = append(selected, e.Name)
		}
	}

	results := make(map[string]Result, len(selected))
	for _, name := range selected {
		fn, err := lookup(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "running %s...\n", name)
		r := testing.Benchmark(fn)
		res := Result{
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Metrics[k] = v
			}
		}
		results[name] = res
		fmt.Fprintf(stdout, "  %s\n", format(res))
	}

	if *out != "" {
		b := Baseline{
			GoVersion:  runtime.Version(),
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Benchmarks: results,
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *out)
		return nil
	}

	return checkBaseline(stdout, *check, base.Benchmarks, results, *tolerance)
}

// gateAllocs reports whether the named benchmark's allocs/op is regression-
// gated (the internal/bench registry's GateAllocs mark).
func gateAllocs(name string) bool {
	for _, e := range bench.ByName {
		if e.Name == name {
			return e.GateAllocs
		}
	}
	return false
}

// lookup resolves a benchmark name against the internal/bench registry.
func lookup(name string) (func(*testing.B), error) {
	for _, e := range bench.ByName {
		if e.Name == name {
			return e.Fn, nil
		}
	}
	var known []string
	for _, e := range bench.ByName {
		known = append(known, e.Name)
	}
	return nil, fmt.Errorf("unknown benchmark %q (want a subset of %s)", name, strings.Join(known, ","))
}

// checkBaseline compares the measured rate metrics (sim-cycles/s, ops/s)
// against the baseline's benchmarks, failing on a regression beyond the
// tolerance; registry-marked benchmarks additionally gate allocs/op (lower
// is better), catching allocation regressions that rate noise would hide.
// Benchmarks without any gated metric (or absent from the baseline) are
// reported but not gated.
func checkBaseline(stdout io.Writer, path string, baseline map[string]Result, results map[string]Result, tolerance float64) error {
	var failures []string
	compared := 0
	for name, res := range results {
		want, ok := baseline[name]
		if !ok {
			fmt.Fprintf(stdout, "%s: not in baseline %s; skipping\n", name, path)
			continue
		}
		matched := false
		for _, metric := range gateMetrics {
			baseRate, ok := want.Metrics[metric]
			rate, ok2 := res.Metrics[metric]
			if !ok || !ok2 {
				continue
			}
			matched = true
			compared++
			ratio := rate / baseRate
			fmt.Fprintf(stdout, "%s: %.0f %s vs baseline %.0f (%.2fx)\n", name, rate, metric, baseRate, ratio)
			if ratio < 1-tolerance {
				failures = append(failures, fmt.Sprintf(
					"%s regressed: %.0f %s vs baseline %.0f (%.1f%% below, tolerance %.0f%%)",
					name, rate, metric, baseRate, (1-ratio)*100, tolerance*100))
			}
		}
		if gateAllocs(name) && want.AllocsPerOp > 0 {
			matched = true
			compared++
			ratio := float64(res.AllocsPerOp) / float64(want.AllocsPerOp)
			fmt.Fprintf(stdout, "%s: %d allocs/op vs baseline %d (%.2fx)\n", name, res.AllocsPerOp, want.AllocsPerOp, ratio)
			if ratio > 1+tolerance {
				failures = append(failures, fmt.Sprintf(
					"%s allocation regression: %d allocs/op vs baseline %d (%.1f%% above, tolerance %.0f%%)",
					name, res.AllocsPerOp, want.AllocsPerOp, (ratio-1)*100, tolerance*100))
			}
		}
		if !matched {
			fmt.Fprintf(stdout, "%s: no gated metric to compare; skipping\n", name)
		}
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	if compared == 0 {
		// Name or schema drift must not degrade the gate into a green no-op.
		return fmt.Errorf("no benchmark was compared against %s — the gate checked nothing (name or metric drift?)", path)
	}
	fmt.Fprintln(stdout, "benchmark check passed")
	return nil
}

// format renders one result's headline numbers.
func format(r Result) string {
	s := fmt.Sprintf("%d iterations, %.0f ns/op, %d B/op, %d allocs/op", r.Iterations, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	if v, ok := r.Metrics[simCyclesMetric]; ok {
		s += fmt.Sprintf(", %.0f %s", v, simCyclesMetric)
	}
	return s
}
