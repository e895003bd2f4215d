package cmp_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"snug/internal/cmp"
	"snug/internal/config"
)

// conservationSchemes are the families the conservation suite covers, with
// CC at both ends of its spill range: CC(0%) never spills, which is itself
// one of the laws.
var conservationSchemes = []string{"L2P", "L2S", "CC(0%)", "CC(75%)", "DSR", "SNUG"}

// conservationRun is one randomized configuration of the suite.
type conservationRun struct {
	scheme     string
	cores      int
	seed       uint64
	cycles     int64
	benchmarks []string
}

// drawConservationRuns draws the suite's configurations from a fixed-seed
// generator, so the suite is reproducible: per scheme, one short run of
// 100k-150k cycles and one 1.2M-cycle run, long enough for SNUG to latch
// its giver/taker sets and spill. Core counts are the widths TestScaleN
// accepts.
func drawConservationRuns() []conservationRun {
	rng := rand.New(rand.NewSource(0x5eed_e90c))
	pool := []string{"ammp", "parser", "swim", "mesa", "mcf", "vortex"}
	coreChoices := []int{4, 8, 16}
	draw := func(scheme string, long bool) conservationRun {
		r := conservationRun{scheme: scheme, cores: coreChoices[rng.Intn(len(coreChoices))]}
		r.seed = 0x5eed_0000 + uint64(rng.Uint32())
		r.cycles = 100_000 + rng.Int63n(3)*25_000
		if long {
			r.cycles = goldenCycles
		}
		r.benchmarks = make([]string, r.cores)
		for i := range r.benchmarks {
			r.benchmarks[i] = pool[rng.Intn(len(pool))]
		}
		return r
	}
	var runs []conservationRun
	for _, scheme := range conservationSchemes {
		runs = append(runs, draw(scheme, false))
	}
	for _, scheme := range conservationSchemes {
		runs = append(runs, draw(scheme, true))
	}
	return runs
}

// TestConservationLaws runs randomized configurations (width, seed, mix,
// length) under every scheme family and checks the accounting laws a
// correct model obeys at any configuration, not only the one the golden
// digest samples:
//
//   - every L1 miss reaches the controller exactly once, so each core's
//     L2-level accesses (summed over serving sources) equal its L1 misses;
//   - a retrieval hit is a successful retrieval of a spilled block, so
//     hits never exceed retrievals or spills;
//   - CC at 0% spill probability spills nothing, so none of its retrieval
//     broadcasts can hit;
//   - the bus has two paths (address and data), so its busy cycles never
//     exceed twice the elapsed cycles.
func TestConservationLaws(t *testing.T) {
	spilled := map[string]bool{}
	for _, r := range drawConservationRuns() {
		if r.cycles == goldenCycles && testing.Short() {
			continue
		}
		cfg, err := config.TestScaleN(r.cores)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = r.seed
		res, err := cmp.RunWorkload(cfg, r.scheme, r.benchmarks, r.cycles)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("%s cores=%d seed=%#x cycles=%d mix=%s",
			r.scheme, r.cores, r.seed, r.cycles, strings.Join(r.benchmarks, ","))
		rep := res.Report
		t.Logf("%s: spills=%d retrievals=%d hits=%d bus=%.2f×cycles",
			id, rep.Spills, rep.Retrievals, rep.RetrievalHits, float64(rep.Bus.BusyCycles)/float64(res.Cycles))
		if len(rep.PerCore) != len(res.Cores) {
			t.Fatalf("%s: report has %d cores, run has %d", id, len(rep.PerCore), len(res.Cores))
		}
		for i, c := range res.Cores {
			if got := rep.PerCore[i].Total(); got != c.L1Misses {
				t.Errorf("%s: core %d has %d L2-level accesses, %d L1 misses", id, i, got, c.L1Misses)
			}
		}
		if rep.RetrievalHits > rep.Retrievals || rep.RetrievalHits > rep.Spills {
			t.Errorf("%s: %d retrieval hits, %d retrievals, %d spills", id, rep.RetrievalHits, rep.Retrievals, rep.Spills)
		}
		if r.scheme == "CC(0%)" && (rep.Spills != 0 || rep.RetrievalHits != 0) {
			t.Errorf("%s: %d spills and %d retrieval hits at 0%% spill probability", id, rep.Spills, rep.RetrievalHits)
		}
		if busy := rep.Bus.BusyCycles; busy > 2*res.Cycles {
			t.Errorf("%s: bus busy %d cycles in %d elapsed (two paths)", id, busy, res.Cycles)
		}
		if rep.Spills > 0 && rep.RetrievalHits > 0 {
			spilled[r.scheme] = true
		}
	}
	if testing.Short() {
		return
	}
	// The spill laws are vacuous on runs that never spill: the long draws
	// must exercise them for every cooperative scheme.
	for _, scheme := range []string{"CC(75%)", "DSR", "SNUG"} {
		if !spilled[scheme] {
			t.Errorf("%s: no run both spilled and hit on a retrieval; the spill laws checked nothing", scheme)
		}
	}
}
