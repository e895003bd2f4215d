package cmp_test

import (
	"testing"

	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/cpu"
	"snug/internal/isa"
	"snug/internal/trace"
)

const (
	allocWarmup = 100_000 // cycles simulated before measuring
	allocQuanta = 200     // length of the long measured Run, in quanta
	allocRuns   = 5       // testing.AllocsPerRun repetitions
)

// TestSteadyStateAllocs pins the allocation-free steady state of the whole
// per-quantum loop: core stepping, the L1s, every scheme controller, the
// bus, DRAM and the instruction streams, for all five families. System.Run
// allocates a fixed amount per call for the RunResult it returns, so after
// a warm-up one quantum and 200 quanta must cost the same number of
// allocations. An allocation per instruction, access or tick shows up as a
// count that grows with the run length.
//
// All three core paths are covered: live generators, replays of recorded
// streams, and tapes. A recording or a tape extends itself lazily,
// allocating chunks by design, so an untimed run first extends it past
// everything the measurement will consume.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	cfg := config.TestScale()
	q := cfg.Quantum
	// Everything one measurement simulates: the warm-up, plus each
	// measured Run once more for AllocsPerRun's own warm-up call.
	cycles := allocWarmup + (allocRuns+1)*(1+allocQuanta)*q
	live := func() []isa.Stream {
		streams, err := cmp.WorkloadStreams(cfg, goldenBench, cmp.PhaseRefs(cycles))
		if err != nil {
			t.Fatal(err)
		}
		return streams
	}
	recs := trace.RecordAll(live())
	var tapes []*cpu.Tape
	for i, s := range live() {
		tapes = append(tapes, cpu.NewTape(cfg, i, s))
	}
	for _, scheme := range conservationSchemes {
		paths := []struct {
			name string
			sys  func() (*cmp.System, error)
		}{
			{"live", func() (*cmp.System, error) { return cmp.NewSystem(cfg, scheme, live()) }},
			{"replay", func() (*cmp.System, error) { return cmp.NewSystem(cfg, scheme, replays(recs)) }},
			{"tape", func() (*cmp.System, error) { return cmp.NewTapeSystem(cfg, scheme, tapes) }},
		}
		for _, path := range paths {
			sys, err := path.sys()
			if err != nil {
				t.Fatal(err)
			}
			// A run is a pure function of its streams, so this untimed run
			// consumes exactly the prefix the measured one will, and
			// extends a recording or tape past it.
			sys.Run(cycles)
			if sys, err = path.sys(); err != nil {
				t.Fatal(err)
			}
			sys.Run(allocWarmup)
			one := testing.AllocsPerRun(allocRuns, func() { sys.Run(q) })
			many := testing.AllocsPerRun(allocRuns, func() { sys.Run(allocQuanta * q) })
			t.Logf("%s/%s: %v allocs per 1-quantum Run, %v per %d-quantum Run", scheme, path.name, one, many, allocQuanta)
			if one != many {
				t.Errorf("%s/%s: Run allocates %v times for 1 quantum but %v for %d quanta; stepping allocates in steady state",
					scheme, path.name, one, many, allocQuanta)
			}
		}
	}
}
