package cmp

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"snug/internal/config"
)

// TestStreamCacheLifecycle checks the cache's memory bound and its
// results: a seed's entry leaves the cache, and its tapes return to the
// pool, once all of its declared runs have finished; a single-use run
// creates no entry; a seed asked fewer times than declared (a cell partly
// restored from a checkpoint) stays cached. Every run equals RunWorkload's.
func TestStreamCacheLifecycle(t *testing.T) {
	const cycles = 30_000
	bench := []string{"ammp", "parser", "swim", "mesa"}
	sc := NewStreamCache()
	run := func(scheme string, seed uint64, uses int) {
		t.Helper()
		cfg := config.TestScale()
		cfg.Seed = seed
		got, err := sc.Run(cfg, scheme, bench, cycles, uses)
		if err != nil {
			t.Error(err)
			return
		}
		want, err := RunWorkload(cfg, scheme, bench, cycles)
		if err != nil {
			t.Error(err)
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s at seed %d: cached run differs from RunWorkload", scheme, seed)
		}
	}

	// Seed 1: the first of three runs records; the other two read the
	// tapes concurrently, and the last to finish recycles them.
	run("L2P", 1, 3)
	e := sc.entries[1]
	if e == nil || e.remaining != 2 {
		t.Fatalf("after the first of 3 runs the entry is %+v, want 2 runs remaining", e)
	}
	tapes := e.tapes
	var wg sync.WaitGroup
	for _, scheme := range []string{"SNUG", "CC(75%)"} {
		wg.Add(1)
		go func(scheme string) {
			defer wg.Done()
			run(scheme, 1, 3)
		}(scheme)
	}
	wg.Wait()
	if _, ok := sc.entries[1]; ok {
		t.Error("seed 1 is still cached after all of its runs")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("seed 1's tapes were not recycled: Cursor did not panic")
			}
		}()
		tapes[0].Cursor()
	}()

	// Seed 2: a single-use run has nothing to share and runs live.
	run("SNUG", 2, 1)
	if _, ok := sc.entries[2]; ok {
		t.Error("a single-use run created a cache entry")
	}

	// Seed 3: asked twice of three declared uses, so it stays cached with
	// its tapes intact.
	run("L2P", 3, 3)
	run("SNUG", 3, 3)
	e = sc.entries[3]
	if e == nil || e.remaining != 1 || e.live != 0 {
		t.Fatalf("partly used seed 3 has entry %+v, want 1 run remaining and none live", e)
	}
	e.tapes[0].Cursor() // panics if the tapes were recycled
}

// TestStreamCacheRefusesAnotherCell checks that a seed's entry serves only
// runs with the inputs its tapes were built from: the same seed asked with
// another L1, another branch predictor or another benchmark list is
// refused, while a run that changes only what lies below the front end —
// the scheme's parameters, the L1 latency — shares the entry.
func TestStreamCacheRefusesAnotherCell(t *testing.T) {
	const cycles = 20_000
	bench := []string{"ammp", "parser", "swim", "mesa"}
	sc := NewStreamCache()
	base := config.TestScale()
	if _, err := sc.Run(base, "L2P", bench, cycles, 4); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		mut   func(*config.System)
		bench []string
	}{
		"L1 ways":    {func(c *config.System) { c.Mem.L1D.Ways = 2 }, bench},
		"BTB ways":   {func(c *config.System) { c.Core.BTBWays = 2 }, bench},
		"benchmarks": {func(*config.System) {}, []string{"ammp", "ammp", "swim", "mesa"}},
	} {
		cfg := base
		c.mut(&cfg)
		if _, err := sc.Run(cfg, "SNUG", c.bench, cycles, 4); err == nil || !strings.Contains(err.Error(), "is cached with") {
			t.Errorf("%s: run on the cached seed gave err %v, want a refusal", name, err)
		}
	}
	for name, mut := range map[string]func(*config.System){
		"SNUG threshold": func(c *config.System) { c.SNUG.PDivisor = 4 },
		"L1 latency":     func(c *config.System) { c.Mem.L1Lat = 2 },
	} {
		cfg := base
		mut(&cfg)
		got, err := sc.Run(cfg, "SNUG", bench, cycles, 4)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want, err := RunWorkload(cfg, "SNUG", bench, cycles)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: shared run differs from RunWorkload", name)
		}
	}
	if e := sc.entries[base.Seed]; e == nil || e.remaining != 1 {
		t.Errorf("after three of four runs the entry is %+v, want 1 run remaining", e)
	}
}

// TestRunRefusesNonPositiveCycles checks that both run entry points refuse
// a run length that is not positive instead of reporting NaN IPCs.
func TestRunRefusesNonPositiveCycles(t *testing.T) {
	cfg := config.TestScale()
	bench := []string{"ammp", "parser", "swim", "mesa"}
	for _, cycles := range []int64{0, -5} {
		if _, err := RunWorkload(cfg, "SNUG", bench, cycles); err == nil {
			t.Errorf("RunWorkload at %d cycles succeeded", cycles)
		}
		for _, uses := range []int{1, 2} {
			if _, err := NewStreamCache().Run(cfg, "SNUG", bench, cycles, uses); err == nil {
				t.Errorf("StreamCache.Run at %d cycles and %d uses succeeded", cycles, uses)
			}
		}
	}
}
