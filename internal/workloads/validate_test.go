package workloads

import (
	"fmt"
	"slices"

	"snug/internal/trace"
)

// classComposition is the Table 7 class recipe at quad-core width.
var classComposition = map[string]map[trace.Class]int{
	"C1": {trace.ClassA: 4},
	"C2": {trace.ClassC: 4},
	"C3": {trace.ClassA: 2, trace.ClassC: 2},
	"C4": {trace.ClassA: 2, trace.ClassB: 1, trace.ClassC: 1},
	"C5": {trace.ClassA: 2, trace.ClassD: 2},
	"C6": {trace.ClassA: 2, trace.ClassB: 1, trace.ClassD: 1},
}

// ValidateCombos checks a combination list of arbitrary width against the
// Table 7 class rules scaled to that width: every combo has exactly width
// cores, its name matches the canonical ComboName, and its per-class member
// counts are the quad-core composition multiplied by width/4.
func ValidateCombos(combos []Combo, width int) error {
	if width <= 0 || width%4 != 0 {
		return fmt.Errorf("workloads: width %d is not a positive multiple of 4", width)
	}
	rep := width / 4
	for _, combo := range combos {
		if len(combo.Cores) != width {
			return fmt.Errorf("workloads: combo %s has %d cores, want %d", combo.Name, len(combo.Cores), width)
		}
		if want := ComboName(combo.Cores); combo.Name != want {
			return fmt.Errorf("workloads: combo %s has non-canonical name (want %s)", combo.Name, want)
		}
		counts := map[trace.Class]int{}
		for _, b := range combo.Cores {
			p, err := trace.ByName(b)
			if err != nil {
				return fmt.Errorf("workloads: combo %s: %v", combo.Name, err)
			}
			counts[p.Class]++
		}
		want := classComposition[combo.Class]
		if want == nil {
			return fmt.Errorf("workloads: combo %s has unknown class %s", combo.Name, combo.Class)
		}
		// Check classes in a fixed order so the same mismatch is always
		// the one reported (map iteration order would pick arbitrarily).
		classes := make([]trace.Class, 0, len(want))
		for cls := range want {
			classes = append(classes, cls)
		}
		slices.Sort(classes)
		total := 0
		for _, cls := range classes {
			n := want[cls]
			if counts[cls] != n*rep {
				return fmt.Errorf("workloads: combo %s (%s) has %d class-%s members, want %d",
					combo.Name, combo.Class, counts[cls], cls, n*rep)
			}
			total += n * rep
		}
		if total != width {
			return fmt.Errorf("workloads: combo %s (%s) class composition covers %d of %d cores",
				combo.Name, combo.Class, total, width)
		}
	}
	return nil
}
