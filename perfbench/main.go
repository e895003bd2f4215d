// Command perfbench is the repository's benchmark: it times the simulator
// end to end on two workloads and, in a separate traced run, splits that
// time into per-layer costs that add up to it.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload fig9|live4|all --seed N --seconds S --trace 0|1
//
// For one workload, the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. Lines before it
// print the host record, each set-up and sample time, the results digest,
// each metric by name with its unit, and (for fig9) Figure 9's AVG row.
// --workload all (the default) runs the two workloads in turn, each
// ending with its own result line.
//
// # Workloads
//
// Every workload is a closed batch: a sample starts when the previous one
// finishes, samples repeat while the next one is expected to end within
// --seconds (at least one runs), and each metric reports the median sample.
// Both run at config.TestScale for bench.Cycles (1.2M) simulated cycles,
// long enough to pass SNUG's Stage I→II latch and one re-latch, so spills,
// retrievals and stranded drops do real work. Every simulation starts with
// empty caches. --seed
// replaces the configuration seed (default 0x5eed_c0de); the simulator
// receives only the inputs generated from it.
//
//   - fig9: experiments.Evaluate over the 21 Table 8 combos × {L2P, L2S,
//     CC(0/25/50/75/100%), DSR, SNUG} = 189 jobs, replay on, checkpointed
//     to a fresh store, Parallelism min(2, GOMAXPROCS), under
//     sweep.ContinueOnError. It is the paper's headline evaluation and the
//     only workload that runs the sweep, writes checkpoints, shares one
//     recording across a cell's nine runs and drives all five controllers.
//     An operation is one job.
//   - live4: one 4-core SNUG run on live generators through
//     cmp.RunWorkload, the path `snugsim -scheme SNUG` takes. Instructions
//     are synthesized as they run and read through the per-instruction Next
//     path, not batch decode, and nothing is recorded, replayed or
//     checkpointed; synthesis is roughly half its host time. A sweep or
//     stream-sharing change must read flat here. At the default seed it is
//     the golden run (digest fb8ac38b40b7bdf7). An operation is the run.
//
// A 16-core SNUG run replaying set-up recordings is not a workload, because
// its host time was too unsteady to gate on: on a 2-CPU share of a busy
// host its run medians over ten seeds ranged from 0.96 to 1.44 s (quartile
// spread 26% of the median) in the same quarter hour in which live4's held
// within 0.56-0.63 s.
//
// No workload selects the intra-run epoch engine. Its only default user is
// ScalingStudy at ≥8 cores, and on a host with few CPUs the sweep workers
// hold every cpubudget token there, so it falls back to the serial engine
// anyway; measuring it belongs to the study that decides whether to keep it.
//
// # End-to-end metrics (--trace 0)
//
//	wall_s            s         lower   host wall time of one sample
//	cpu_s             s         lower   process user+sys CPU time of one sample
//	setup_s           s         lower   time before the timed region (median of 5 set-ups; see below)
//	sim_cycles_per_s  cycles/s  higher  simulated cycles, summed over the sample's simulations, per wall second
//	sim_instr_per_s   instr/s   higher  committed instructions over all cores and simulations per wall second
//	peak_rss_mb       MiB       lower   peak resident memory of the process (under --workload all it carries over)
//	heap_allocs       count     lower   heap allocations in one sample
//
// Neither workload has a set-up a caller can separate from the run
// (Evaluate and RunWorkload build everything inside), so setup_s times a
// warm-up run: a class-C1 evaluation at 400k cycles for fig9, one full
// live4 run for live4.
//
// An operation fails on an error, a panic, or a results digest that
// differs from the pinned one (default seed) or from the run's other
// samples (any seed). fig9 also fails when its checkpoint store does not
// hold exactly the results Evaluate returned.
//
// # Per-layer metrics (--trace 1)
//
// The traced run first runs untraced samples, then one traced sample of
// the same work, and checks both produce the same digest. Every hook uses
// public API from this package's own code: each core's stream is wrapped
// in a timing stream (keeping the isa.BatchStream path for replays), the
// controller is a pass-through "TIMED" family registered with
// schemes.Register that times Access, WritebackL1 and Tick, and the traced
// fig9 reruns the 189 jobs through sweep.Run with its own per-cell
// recordings. Evaluate's scheme list and stream cache are internal, so on
// fig9 the trace.* and sweep.job_s figures describe the benchmark's re-run
// of Evaluate's job list and cache, not Evaluate itself; a change inside
// Evaluate's stream cache moves fig9's end-to-end metrics but not these.
// Calls too short to time one by one are timed by running that
// layer alone on the input the traced run captured: each core's load/store
// sequence through a fresh L1 (cache.l1_s), each core's instruction
// sequence through a fresh cpu.Core whose MemFunc returns the recorded
// completion cycles (cpu.self_s), and every result through a fresh
// checkpoint store (sweep.put_s). Both replays must reproduce the traced
// run's counters exactly. Times are seconds, counts are whole numbers;
// metrics marked sim are simulated-time counters a speed-only change must
// leave unchanged.
//
//	trace.synth_s, trace.synth_instr        stream synthesis (Generator.Next); moves wall_s, cpu_s, sim_instr_per_s
//	trace.record_s, trace.recorded_bytes    recording encode; moves wall_s, peak_rss_mb (fig9 only)
//	trace.decode_s, trace.decode_instr      replay decode (Replay.NextBatch) net of lazy extension; moves sim_instr_per_s (fig9 only)
//	cpu.self_s, cpu.instr, cpu.ns_per_instr the out-of-order core step; sim cpu.ipc, cpu.stall_cycles
//	cache.l1_s, cache.l1_accesses, cache.l1_miss_ratio
//	cmp.self_s, cmp.core_quanta             System.Run outside every other layer; Core.Run calls
//	<f>.access_s, <f>.tick_s, <f>.calls, <f>.ns_per_call; sim <f>.remote_hit_share, <f>.offchip_share
//	                                        per controller family f: schemes.l2p, schemes.l2s,
//	                                        schemes.cc, schemes.dsr, core.snug; calls and
//	                                        access_s cover Access + WritebackL1
//	sim <f>.spills, <f>.spill_no_taker, <f>.retrieval_hits, <f>.retrieval_hit_ratio
//	                                        cooperative families cc, dsr, snug; plus core.snug.stranded_dropped
//	sim bus.transactions, bus.busy_cycles, bus.wait_cycles
//	sim mem.dram_reads, mem.dram_writes, mem.wb_direct_reads, mem.wb_full_stalls
//	sweep.jobs, sweep.failed, sweep.retried, sweep.job_s, sweep.put_s, sweep.overhead_s   fig9 only
//	ledger.layers_s, ledger.residual_s, ledger.trace_overhead_s, ledger.wall_s
//
// live4 calls cmp directly, and cmp cannot reach the sweep (the sweep
// imports cmp), so its sweep.* figures are 0 by construction.
//
// The ledger counts worker-seconds: the traced wall time ledger.wall_s
// times the sweep parallelism (1 outside fig9), the isolated replays, which
// are the benchmark's own work, excluded. ledger.layers_s sums the self
// times trace.synth_s, trace.record_s, trace.decode_s, cpu.self_s,
// cache.l1_s, cmp.self_s, every <f>.access_s and <f>.tick_s, and
// sweep.overhead_s. cmp.self_s is what remains of RunStreams time after
// every other layer inside it, so ledger.layers_s equals RunStreams time
// (plus sweep.overhead_s) by construction, and ledger.residual_s is the time
// spent outside RunStreams. An error in the isolated cpu.self_s or
// cache.l1_s estimate therefore lands in cmp.self_s. The ledger should keep
// cmp.self_s and sweep.overhead_s non-negative, cmp.self_s under 25% of
// RunStreams time and the residual within 5% of the worker time; the
// traced run prints a "ledger warning" line when it does not. These are
// timing checks, so they do not fail operations: the isolated replays run
// after the traced simulation, and on a shared host a change of speed
// between the two moves cmp.self_s by more than its own size (on live4
// cmp.self_s is a few tens of ms of a 0.5-0.7 s run, and the isolated core
// replay it is the remainder of takes 0.15-0.22 s). The traced run fails
// its operations when an
// isolated replay does not reproduce the traced run's counters, or when
// its digest differs. ledger.trace_overhead_s is ledger.wall_s minus the
// untraced wall time.
//
// # What the numbers mean
//
// The repository holds no reference measurements — the paper gives none
// and the figures reproduce shapes only — so the model is unvalidated and
// the benchmark reports no error figure. It measures the simulator's host
// cost on fixed, deterministic inputs, nothing about real hardware.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"snug/internal/config"
)

// defaultSeed is the configuration seed the pinned digests belong to.
var defaultSeed = config.TestScale().Seed

// setups is how many times a run repeats its set-up; setup_s is the median.
const setups = 5

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is the outcome of one untraced sample.
type sample struct {
	ops, failed int
	digest      string
	simCycles   int64
	simInstr    int64
	wall, cpu   float64 // seconds
	allocs      uint64
	note        string // a checked output to print, e.g. fig9's AVG row
	// check, when set, verifies an output of the sample once its timing
	// has ended, so the check's own work is not measured; false fails it.
	check func() bool
}

// workload is one benchmark workload bound to a seed.
type workload interface {
	// setup prepares the inputs of the timed region; it may run repeatedly.
	setup() error
	// run executes one untraced operation batch and returns its outcome.
	run() (sample, error)
	// traced runs the same work with every layer hook installed.
	traced() (*totals, sample, error)
	// pinned returns the digest pinned for the default seed.
	pinned() string
	// close releases the workload's inputs and scratch files.
	close() error
}

// newWorkload builds the named workload for seed.
func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "fig9":
		return newFig9(seed, fig9Options{})
	case "live4":
		return newLive4(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want fig9 or live4)", name)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workloadNames lists the workloads in the order --workload all runs them.
var workloadNames = []string{"fig9", "live4"}

// run parses the arguments and runs the named workload, or every workload
// in turn, printing each one's report.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload: fig9, live4, or both in turn")
	seed := fs.Uint64("seed", defaultSeed, "workload seed (replaces the configuration seed)")
	seconds := fs.Float64("seconds", 30, "how long the untraced run keeps sampling")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	fmt.Fprintf(out, "host: %s\n", hostRecord())
	for _, n := range names {
		if err := runOne(n, *seed, *seconds, *traceFlag == 1, out); err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
	}
	return nil
}

// runOne runs one workload and prints its metrics and result line.
func runOne(name string, seed uint64, seconds float64, traced bool, out io.Writer) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workload: %s seed=%#x cycles=%d\n", name, seed, benchCycles)
	var res result
	if traced {
		res, err = tracedRun(w, seed, out)
	} else {
		res, err = untracedRun(w, seed, seconds, out)
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	printMetrics(out, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// untracedRun repeats set-up, then samples until seconds have passed, and
// reports the end-to-end metrics.
func untracedRun(w workload, seed uint64, seconds float64, out io.Writer) (result, error) {
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		t := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
		fmt.Fprintf(out, "setup %d: %.4fs\n", i+1, setupTimes[i])
	}
	var samples []sample
	start := time.Now()
	// After the first sample, one expected to end past the deadline is not
	// started, so a fig9 run of 25-40 s samples takes one, not two.
	for len(samples) == 0 || time.Since(start).Seconds()+samples[len(samples)-1].wall <= seconds {
		s, err := timed(w.run)
		if err != nil {
			return result{}, err
		}
		samples = append(samples, s)
		fmt.Fprintf(out, "sample %d: wall=%.4fs cpu=%.4fs allocs=%d\n", len(samples), s.wall, s.cpu, s.allocs)
	}
	res := result{Metrics: map[string]metric{}}
	res.Correct = judge(&res, w, seed, samples, out)
	col := func(f func(s sample) float64) float64 {
		var xs []float64
		for _, s := range samples {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	res.Metrics["wall_s"] = metric{col(func(s sample) float64 { return s.wall }), "s"}
	res.Metrics["cpu_s"] = metric{col(func(s sample) float64 { return s.cpu }), "s"}
	res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
	res.Metrics["sim_cycles_per_s"] = metric{col(func(s sample) float64 { return float64(s.simCycles) / s.wall }), "cycles/s"}
	res.Metrics["sim_instr_per_s"] = metric{col(func(s sample) float64 { return float64(s.simInstr) / s.wall }), "instr/s"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
	res.Metrics["heap_allocs"] = metric{col(func(s sample) float64 { return float64(s.allocs) }), "count"}
	fmt.Fprintf(out, "samples: %d in %.1f s\n", len(samples), time.Since(start).Seconds())
	return res, nil
}

// tracedRun runs untraced samples for the baseline wall time, then one
// traced sample, and reports the per-layer metrics.
func tracedRun(w workload, seed uint64, out io.Writer) (result, error) {
	if err := w.setup(); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	var samples []sample
	for i := 0; i < 3; i++ {
		s, err := timed(w.run)
		if err != nil {
			return result{}, err
		}
		samples = append(samples, s)
		if s.wall > 5 { // one long sample is a steady enough baseline
			break
		}
	}
	var walls []float64
	for _, s := range samples {
		walls = append(walls, s.wall)
	}
	tot, ts, err := w.traced()
	if err != nil {
		return result{}, err
	}
	if tot.isoErr != nil {
		fmt.Fprintf(out, "traced run check failed: %v\n", tot.isoErr)
		ts.failed = ts.ops
	}
	if err := tot.check(); err != nil {
		fmt.Fprintf(out, "ledger warning: %v\n", err)
	}
	samples = append(samples, ts)
	res := result{Metrics: tot.metrics(median(walls))}
	res.Correct = judge(&res, w, seed, samples, out)
	return res, nil
}

// judge fills attempted/failed from the samples and reports whether every
// digest agrees (and matches the pinned one at the default seed).
func judge(res *result, w workload, seed uint64, samples []sample, out io.Writer) bool {
	want := samples[0].digest
	if p := w.pinned(); seed == defaultSeed && p != "" {
		want = p
	}
	for _, s := range samples {
		res.Attempted += s.ops
		failed := s.failed
		if s.digest != want {
			failed = s.ops
		}
		res.Failed += failed
	}
	fmt.Fprintf(out, "digest: %s (want %s)\n", samples[0].digest, want)
	if note := samples[0].note; note != "" {
		fmt.Fprintln(out, note)
	}
	return res.Failed == 0
}

// timed runs one untraced sample, starting from a collected heap, and fills
// its wall time, CPU time and allocation count.
func timed(f func() (sample, error)) (sample, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs := ms.Mallocs
	cpu0 := cpuSeconds()
	t := time.Now()
	s, err := f()
	s.wall = time.Since(t).Seconds()
	s.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms)
	s.allocs = ms.Mallocs - allocs
	if s.check != nil && !s.check() {
		s.failed = s.ops
	}
	return s, err
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMiB returns the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printMetrics prints every metric by name with its unit, sorted by name.
func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// hostRecord describes the host a result was measured on: nproc,
// GOMAXPROCS, CPU model, Go version and commit. The commit comes from the
// build's VCS stamp, marked +modified when the tree had uncommitted
// changes, and reads "unknown" when the sources were not in a repository.
func hostRecord() string {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		commit += "+modified"
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit)
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
