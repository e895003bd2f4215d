// Package bench holds the run length and workload mix shared by the
// repository's benchmark (perfbench) and the `go test -bench` harness
// (bench_test.go at the module root), so both measure the same amount of
// simulated work on the same streams.
package bench

// Cycles keeps individual simulations short enough for benchmark runs
// while spanning several SNUG epochs.
const Cycles = 1_200_000

// MixBench is the representative mixed workload (one benchmark per class)
// the simulator-speed and per-scheme benchmarks run.
var MixBench = []string{"ammp", "parser", "swim", "mesa"}
