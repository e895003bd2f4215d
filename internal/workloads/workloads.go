// Package workloads encodes the paper's evaluation matrix — the 21
// quad-core combinations of Table 8 in the workload-combination classes
// C1–C6 of Table 7 — plus the class-consistent scale-out composer that
// widens the matrix to 8-, 16- or any 4·k-core combinations for the
// scaling study. The package's tests check every combination, at every
// width, against the Table 7 class recipe and the Table 6 benchmark
// classes.
package workloads

import (
	"fmt"
	"strings"
)

// Combo is one workload combination: one benchmark per core.
type Combo struct {
	Class string   // "C1".."C6"
	Name  string   // short identifier, e.g. "4xammp" or "ammp+parser+bzip2+mcf"
	Cores []string // benchmark per core
}

// ComboName derives a combo's canonical name from its per-core benchmark
// list: runs of identical consecutive benchmarks compress to "NxBench", and
// runs join with "+". The quad-core Table 8 names ("4xammp",
// "ammp+parser+bzip2+mcf") are unchanged by this rule; wider combos get
// names like "8xammp" and "2xammp+2xparser+2xbzip2+2xmcf". These names key
// checkpoint stores, so the rule must stay stable across releases.
func ComboName(cores []string) string {
	var parts []string
	for i := 0; i < len(cores); {
		j := i
		for j < len(cores) && cores[j] == cores[i] {
			j++
		}
		if n := j - i; n > 1 {
			parts = append(parts, fmt.Sprintf("%dx%s", n, cores[i]))
		} else {
			parts = append(parts, cores[i])
		}
		i = j
	}
	return strings.Join(parts, "+")
}

// Table8 returns the paper's 21 quad-core workload combinations grouped by
// class.
//
// C1/C2 are stress tests: four identical applications with capacity sharing
// but no data sharing (each instance gets a disjoint address space, which
// internal/addr guarantees). C3–C6 mix two class A applications with class
// B/C/D applications per Table 7. The paper's Table 8 lists "4 vertex";
// that is its typo for vortex.
func Table8() []Combo {
	mk := func(class string, cores ...string) Combo {
		return Combo{Class: class, Name: ComboName(cores), Cores: cores}
	}
	return []Combo{
		// C1: stress tests from class A.
		mk("C1", "ammp", "ammp", "ammp", "ammp"),
		mk("C1", "parser", "parser", "parser", "parser"),
		mk("C1", "vortex", "vortex", "vortex", "vortex"),
		// C2: stress tests from class C.
		mk("C2", "vpr", "vpr", "vpr", "vpr"),
		mk("C2", "bzip2", "bzip2", "bzip2", "bzip2"),
		mk("C2", "mcf", "mcf", "mcf", "mcf"),
		mk("C2", "art", "art", "art", "art"),
		// C3: 2×A + 2×C.
		mk("C3", "ammp", "parser", "bzip2", "mcf"),
		mk("C3", "parser", "vortex", "mcf", "art"),
		mk("C3", "vortex", "ammp", "art", "vpr"),
		// C4: 2×A + 1×B + 1×C.
		mk("C4", "ammp", "parser", "apsi", "bzip2"),
		mk("C4", "parser", "vortex", "gcc", "mcf"),
		mk("C4", "vortex", "ammp", "apsi", "art"),
		mk("C4", "ammp", "parser", "gcc", "vpr"),
		// C5: 2×A + 2×D.
		mk("C5", "ammp", "parser", "swim", "mesa"),
		mk("C5", "parser", "vortex", "mesa", "gzip"),
		mk("C5", "vortex", "ammp", "swim", "gzip"),
		// C6: 2×A + 1×B + 1×D.
		mk("C6", "vortex", "ammp", "apsi", "gzip"),
		mk("C6", "parser", "vortex", "gcc", "mesa"),
		mk("C6", "ammp", "parser", "apsi", "swim"),
		mk("C6", "vortex", "ammp", "gcc", "mesa"),
	}
}

// ScaleOut widens the Table 8 matrix to width cores while preserving each
// combination's Table 7 class composition: every quad-core member benchmark
// is replicated width/4 times, so a C4 combo (2×A + 1×B + 1×C) becomes
// 4×A + 2×B + 2×C at 8 cores and 8×A + 4×B + 4×C at 16. Replicas stay
// contiguous, and internal/addr gives every instance a disjoint address
// space, so widening adds capacity pressure without data sharing — the
// paper's stress-test methodology at scale. width must be a positive
// multiple of 4; ScaleOut(4) is exactly Table8().
func ScaleOut(width int) ([]Combo, error) {
	if width <= 0 || width%4 != 0 {
		return nil, fmt.Errorf("workloads: scale-out width %d is not a positive multiple of 4", width)
	}
	rep := width / 4
	base := Table8()
	out := make([]Combo, len(base))
	for i, combo := range base {
		cores := make([]string, 0, width)
		for _, b := range combo.Cores {
			for r := 0; r < rep; r++ {
				cores = append(cores, b)
			}
		}
		out[i] = Combo{Class: combo.Class, Name: ComboName(cores), Cores: cores}
	}
	return out, nil
}

// Classes returns the class labels in order.
func Classes() []string { return []string{"C1", "C2", "C3", "C4", "C5", "C6"} }
