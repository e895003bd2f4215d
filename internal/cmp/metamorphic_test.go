package cmp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/workloads"
)

// TestCCZeroMatchesL2P checks the metamorphic relation CC(0%) ≡ L2P. CC
// at spill probability 0 never spills, so none of its retrieval broadcasts
// can hit, and what is left of its access path is L2P's: a local lookup, a
// direct read from the write buffer, then DRAM, whose request beat the
// broadcast's address beat is. Over randomized Table 8 combos, seeds and
// run lengths, at widths 4 and 8 on the test-scale and the -fullscale
// system, a CC(0%) run must report everything the L2P run of the same
// configuration reports (%+v), but for its scheme name and its retrieval
// count: one broadcast per off-chip miss, where L2P counts none. -short
// (the race job) skips the width-8 cases.
func TestCCZeroMatchesL2P(t *testing.T) {
	rng := rand.New(rand.NewSource(0xcc0_12b))
	scales := []struct {
		name string
		sys  config.System
	}{
		{"test-scale", config.TestScale()},
		{"fullscale", config.Scaled(50)},
	}
	for _, width := range []int{4, 8} {
		if width == 8 && testing.Short() {
			continue
		}
		combos, err := workloads.ScaleOut(width)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range scales {
			cfg, err := config.WithCores(scale.sys, width)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = rng.Uint64()
			combo := combos[rng.Intn(len(combos))]
			cycles := 200_000 + rng.Int63n(3)*100_000
			id := fmt.Sprintf("%s %s seed=%#x cycles=%d", scale.name, combo.Name, cfg.Seed, cycles)
			t.Log(id)

			l2p, err := cmp.RunWorkload(cfg, "L2P", combo.Cores, cycles)
			if err != nil {
				t.Fatal(err)
			}
			cc, err := cmp.RunWorkload(cfg, "CC(0%)", combo.Cores, cycles)
			if err != nil {
				t.Fatal(err)
			}
			if l2p.Report.OffChip() == 0 || l2p.Report.Retrievals != 0 {
				t.Fatalf("%s: L2P went off chip %d times with %d retrievals; want some, and none",
					id, l2p.Report.OffChip(), l2p.Report.Retrievals)
			}
			want := l2p
			want.Scheme, want.Report.Scheme = cc.Scheme, cc.Scheme
			want.Report.Retrievals = l2p.Report.OffChip()
			if got, want := fmt.Sprintf("%+v", cc), fmt.Sprintf("%+v", want); got != want {
				t.Errorf("%s: CC(0%%) differs from L2P:\n got %s\nwant %s", id, got, want)
			}
		}
	}
}
