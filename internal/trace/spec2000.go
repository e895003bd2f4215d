package trace

import (
	"fmt"
	"sort"
)

// The SPEC CPU2000 benchmark models. Depth bands are calibrated to the
// set-level demand distributions the paper reports in §2.3 and Table 6:
//
//   - class A (ammp, parser, vortex): > 1 MB application demand
//     (mean demand ≈ 16 ways/set on the 16-way 1 MB slice) with strong
//     set-level non-uniformity — a large cold fraction (givers) plus a
//     deep-demand fraction (takers);
//   - class B (apsi, gcc): < 1 MB application demand with set-level
//     non-uniformity (mostly shallow sets, a thin deep tail);
//   - class C (vpr, art, mcf, bzip2): > 1 MB demand, uniform across sets —
//     application-level takers with nothing to give;
//   - class D (gzip, swim, mesa): < 1 MB demand, uniform — application-level
//     givers (swim is a streaming giver: tiny reuse, high compulsory rate);
//   - applu: characterization-only streaming model for Figure 3.
//
// Figures 1–3 anchors: ammp keeps ~40 % of sets at demand 1–4 for the whole
// run; vortex spends sampling intervals ~405–792 (40.4 %–79.2 % of the run)
// in a phase with ~15 % of sets at 1–4, ~9 % at 5–8 and ~7 % at 9–12;
// applu keeps essentially all sets at 1–4.

// registry holds the models keyed by name.
var registry = map[string]Profile{}

func register(p Profile) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if _, dup := registry[p.Name]; dup {
		panic(fmt.Sprintf("trace: duplicate benchmark model %q", p.Name))
	}
	registry[p.Name] = p
}

// ByName returns the model for a benchmark name.
func ByName(name string) (Profile, error) {
	p, ok := registry[name]
	if !ok {
		return Profile{}, fmt.Errorf("trace: unknown benchmark %q", name)
	}
	return p, nil
}

// Names returns all registered benchmark names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// intProfile returns the common integer-code knobs.
func intProfile(p Profile) Profile {
	p.Burst = 14
	p.BranchEvery = 7
	p.BranchBias = 0.9
	p.HardBranchFrac = 0.15
	p.CallEvery = 90
	p.FPFrac = 0.02
	p.MultFrac = 0.01
	p.DivFrac = 0.002
	p.DepFrac = 0.52
	p.StackDecay = 0.96
	return p
}

// fpProfile returns the common floating-point-code knobs.
func fpProfile(p Profile) Profile {
	p.Burst = 14
	p.BranchEvery = 16
	p.BranchBias = 0.95
	p.HardBranchFrac = 0.05
	p.CallEvery = 200
	p.FPFrac = 0.45
	p.MultFrac = 0.04
	p.DivFrac = 0.004
	p.DepFrac = 0.48
	p.StackDecay = 0.94
	return p
}

func init() {
	// ---- Class A: > 1 MB, set-level non-uniform -------------------------

	register(fpProfile(Profile{
		Name:        "ammp",
		Class:       ClassA,
		L2Every:     55,
		StoreFrac:   0.24,
		DepLoadFrac: 0.30,
		Phases: []Phase{{
			FracOfRun: 1.0,
			Bands: []DemandBand{
				{Frac: 0.40, MinDepth: 1, MaxDepth: 4},   // persistent cold 40 %
				{Frac: 0.10, MinDepth: 5, MaxDepth: 9},   // shallow (real slack)
				{Frac: 0.50, MinDepth: 44, MaxDepth: 60}, // deep takers (>> 2x assoc)
			},
			Compulsory: 0.02,
			HotWeight:  0.6,
		}},
	}))

	register(intProfile(Profile{
		Name:        "parser",
		Class:       ClassA,
		L2Every:     60,
		StoreFrac:   0.28,
		DepLoadFrac: 0.40,
		Phases: []Phase{{
			FracOfRun: 1.0,
			Bands: []DemandBand{
				{Frac: 0.30, MinDepth: 1, MaxDepth: 4},
				{Frac: 0.20, MinDepth: 5, MaxDepth: 10},
				{Frac: 0.50, MinDepth: 40, MaxDepth: 56},
			},
			Compulsory: 0.03,
			HotWeight:  0.6,
		}},
	}))

	register(intProfile(Profile{
		Name:        "vortex",
		Class:       ClassA,
		L2Every:     58,
		StoreFrac:   0.30,
		DepLoadFrac: 0.35,
		Phases: []Phase{
			{ // intervals ~1..404: mildly deep everywhere
				FracOfRun: 0.404,
				Bands: []DemandBand{
					{Frac: 0.08, MinDepth: 1, MaxDepth: 4},
					{Frac: 0.05, MinDepth: 5, MaxDepth: 8},
					{Frac: 0.87, MinDepth: 34, MaxDepth: 50},
				},
				Compulsory: 0.02,
				HotWeight:  0.6,
			},
			{ // intervals ~405..792: the Figure 2 phase
				FracOfRun: 0.388,
				Bands: []DemandBand{
					{Frac: 0.15, MinDepth: 1, MaxDepth: 4},
					{Frac: 0.09, MinDepth: 5, MaxDepth: 8},
					{Frac: 0.07, MinDepth: 9, MaxDepth: 12},
					{Frac: 0.69, MinDepth: 36, MaxDepth: 52},
				},
				Compulsory: 0.02,
				HotWeight:  0.6,
			},
			{ // intervals ~793..1000: back to the opening behaviour
				FracOfRun: 0.208,
				Bands: []DemandBand{
					{Frac: 0.08, MinDepth: 1, MaxDepth: 4},
					{Frac: 0.05, MinDepth: 5, MaxDepth: 8},
					{Frac: 0.87, MinDepth: 34, MaxDepth: 50},
				},
				Compulsory: 0.02,
				HotWeight:  0.6,
			},
		},
	}))

	// ---- Class B: < 1 MB, set-level non-uniform -------------------------

	register(fpProfile(Profile{
		Name:        "apsi",
		Class:       ClassB,
		L2Every:     70,
		StoreFrac:   0.26,
		DepLoadFrac: 0.20,
		Phases: []Phase{{
			FracOfRun: 1.0,
			Bands: []DemandBand{
				{Frac: 0.45, MinDepth: 1, MaxDepth: 3},
				{Frac: 0.47, MinDepth: 4, MaxDepth: 8},
				{Frac: 0.08, MinDepth: 18, MaxDepth: 24},
			},
			Compulsory: 0.02,
			HotWeight:  0.6,
		}},
	}))

	register(intProfile(Profile{
		Name:        "gcc",
		Class:       ClassB,
		L2Every:     65,
		StoreFrac:   0.30,
		DepLoadFrac: 0.30,
		Phases: []Phase{{
			FracOfRun: 1.0,
			Bands: []DemandBand{
				{Frac: 0.55, MinDepth: 1, MaxDepth: 4},
				{Frac: 0.37, MinDepth: 5, MaxDepth: 8},
				{Frac: 0.08, MinDepth: 18, MaxDepth: 26},
			},
			Compulsory: 0.03,
			HotWeight:  0.6,
		}},
	}))

	// ---- Class C: > 1 MB, set-level uniform ------------------------------

	register(intProfile(Profile{
		Name:        "vpr",
		Class:       ClassC,
		L2Every:     60,
		StoreFrac:   0.25,
		DepLoadFrac: 0.35,
		Phases: []Phase{{
			FracOfRun:  1.0,
			Bands:      []DemandBand{{Frac: 1.0, MinDepth: 36, MaxDepth: 48}},
			Compulsory: 0.02,
			HotWeight:  0,
		}},
	}))

	register(fpProfile(Profile{
		Name:        "art",
		Class:       ClassC,
		L2Every:     40,
		StoreFrac:   0.18,
		DepLoadFrac: 0.08, // vector-style independent misses: high MLP
		Phases: []Phase{{
			FracOfRun:  1.0,
			Bands:      []DemandBand{{Frac: 1.0, MinDepth: 40, MaxDepth: 56}},
			Compulsory: 0.02,
			HotWeight:  0,
		}},
	}))

	register(intProfile(Profile{
		Name:        "mcf",
		Class:       ClassC,
		L2Every:     30,
		StoreFrac:   0.16,
		DepLoadFrac: 0.60, // pointer chasing: serialized misses
		Phases: []Phase{{
			FracOfRun:  1.0,
			Bands:      []DemandBand{{Frac: 1.0, MinDepth: 56, MaxDepth: 64}},
			Compulsory: 0.05,
			HotWeight:  0,
		}},
	}))

	register(intProfile(Profile{
		Name:        "bzip2",
		Class:       ClassC,
		L2Every:     65,
		StoreFrac:   0.30,
		DepLoadFrac: 0.25,
		Phases: []Phase{{
			FracOfRun:  1.0,
			Bands:      []DemandBand{{Frac: 1.0, MinDepth: 32, MaxDepth: 44}},
			Compulsory: 0.03,
			HotWeight:  0,
		}},
	}))

	// ---- Class D: < 1 MB, set-level uniform ------------------------------

	register(intProfile(Profile{
		Name:        "gzip",
		Class:       ClassD,
		L2Every:     90,
		StoreFrac:   0.28,
		DepLoadFrac: 0.20,
		Phases: []Phase{{
			FracOfRun:  1.0,
			Bands:      []DemandBand{{Frac: 1.0, MinDepth: 5, MaxDepth: 8}},
			Compulsory: 0.02,
			HotWeight:  0,
		}},
	}))

	register(fpProfile(Profile{
		Name:        "swim",
		Class:       ClassD,
		L2Every:     45,
		StoreFrac:   0.38,
		DepLoadFrac: 0.05,
		Phases: []Phase{{
			FracOfRun:  1.0,
			Bands:      []DemandBand{{Frac: 1.0, MinDepth: 1, MaxDepth: 2}},
			Compulsory: 0.90, // streaming: most touches are one-shot
			HotWeight:  0,
		}},
	}))

	register(fpProfile(Profile{
		Name:        "mesa",
		Class:       ClassD,
		L2Every:     100,
		StoreFrac:   0.25,
		DepLoadFrac: 0.15,
		Phases: []Phase{{
			FracOfRun:  1.0,
			Bands:      []DemandBand{{Frac: 1.0, MinDepth: 3, MaxDepth: 5}},
			Compulsory: 0.03,
			HotWeight:  0,
		}},
	}))

	// ---- Characterization-only ------------------------------------------

	register(fpProfile(Profile{
		Name:        "applu",
		Class:       ClassChar,
		L2Every:     40,
		StoreFrac:   0.35,
		DepLoadFrac: 0.05,
		Phases: []Phase{{
			FracOfRun:  1.0,
			Bands:      []DemandBand{{Frac: 1.0, MinDepth: 1, MaxDepth: 2}},
			Compulsory: 0.995,
			HotWeight:  0,
		}},
	}))
}
