package cmp

import (
	"reflect"
	"sync"
	"testing"

	"snug/internal/config"
)

// TestStreamCacheLifecycle checks the cache's memory bound and its
// results: a seed's entry leaves the cache, and its recordings return to
// the pool, once all of its declared runs have finished; a single-use run
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

	// Seed 1: the first of three runs records; the other two replay
	// concurrently, and the last to finish recycles the recordings.
	run("L2P", 1, 3)
	e := sc.entries[1]
	if e == nil || e.remaining != 2 {
		t.Fatalf("after the first of 3 runs the entry is %+v, want 2 runs remaining", e)
	}
	recs := e.recs
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
				t.Error("seed 1's recordings were not recycled: Replay did not panic")
			}
		}()
		recs[0].Replay()
	}()

	// Seed 2: a single-use run has nothing to share and runs live.
	run("SNUG", 2, 1)
	if _, ok := sc.entries[2]; ok {
		t.Error("a single-use run created a cache entry")
	}

	// Seed 3: asked twice of three declared uses, so it stays cached with
	// its recordings intact.
	run("L2P", 3, 3)
	run("SNUG", 3, 3)
	e = sc.entries[3]
	if e == nil || e.remaining != 1 || e.live != 0 {
		t.Fatalf("partly used seed 3 has entry %+v, want 1 run remaining and none live", e)
	}
	e.recs[0].Replay() // panics if the recordings were recycled
}
