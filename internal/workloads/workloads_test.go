package workloads

import (
	"testing"
)

func TestTable8Has21Combos(t *testing.T) {
	combos := Table8()
	if len(combos) != 21 {
		t.Fatalf("Table 8 has %d combos, want 21", len(combos))
	}
	perClass := map[string]int{}
	for _, c := range combos {
		perClass[c.Class]++
	}
	want := map[string]int{"C1": 3, "C2": 4, "C3": 3, "C4": 4, "C5": 3, "C6": 4}
	for cls, n := range want {
		if perClass[cls] != n {
			t.Errorf("class %s has %d combos, want %d", cls, perClass[cls], n)
		}
	}
}

func TestTable8MatchesTable7Composition(t *testing.T) {
	if err := ValidateCombos(Table8(), 4); err != nil {
		t.Fatal(err)
	}
}

func TestStressTestsAreIdenticalApps(t *testing.T) {
	for _, c := range Table8() {
		if c.Class != "C1" && c.Class != "C2" {
			continue
		}
		for _, b := range c.Cores[1:] {
			if b != c.Cores[0] {
				t.Errorf("stress combo %s mixes %s and %s", c.Name, c.Cores[0], b)
			}
		}
	}
}

func TestMixedCombosAreDistinct(t *testing.T) {
	// Within C3-C6, the two class A members must be different applications
	// ("2 different applications from class A", Table 7).
	for _, c := range Table8() {
		if c.Class == "C1" || c.Class == "C2" {
			continue
		}
		seen := map[string]int{}
		for _, b := range c.Cores {
			seen[b]++
		}
		for b, n := range seen {
			if n > 1 {
				t.Errorf("combo %s schedules %s %d times", c.Name, b, n)
			}
		}
	}
}

func TestComboNames(t *testing.T) {
	for _, c := range Table8() {
		if c.Name == "" {
			t.Fatal("unnamed combo")
		}
		if c.Class == "C1" && c.Name[:2] != "4x" {
			t.Errorf("stress combo named %q, want 4x prefix", c.Name)
		}
	}
}

// TestComboNameRule pins the canonical naming rule: checkpoint-store keys
// derive from these names, so they must stay byte-identical.
func TestComboNameRule(t *testing.T) {
	cases := []struct {
		cores []string
		want  string
	}{
		{[]string{"ammp", "ammp", "ammp", "ammp"}, "4xammp"},
		{[]string{"ammp", "parser", "bzip2", "mcf"}, "ammp+parser+bzip2+mcf"},
		{[]string{"ammp", "ammp", "ammp", "ammp", "ammp", "ammp", "ammp", "ammp"}, "8xammp"},
		{[]string{"ammp", "ammp", "parser", "parser", "bzip2", "bzip2", "mcf", "mcf"},
			"2xammp+2xparser+2xbzip2+2xmcf"},
		{[]string{"ammp", "parser", "ammp"}, "ammp+parser+ammp"},
	}
	for _, c := range cases {
		if got := ComboName(c.cores); got != c.want {
			t.Errorf("ComboName(%v) = %q, want %q", c.cores, got, c.want)
		}
	}
}

// TestScaleOutWidths checks the class-consistent composer at 8 and 16 cores
// against the Table 7 rules scaled to those widths, and that width 4
// reproduces Table 8 exactly.
func TestScaleOutWidths(t *testing.T) {
	for _, width := range []int{4, 8, 16} {
		combos, err := ScaleOut(width)
		if err != nil {
			t.Fatalf("ScaleOut(%d): %v", width, err)
		}
		if len(combos) != 21 {
			t.Fatalf("ScaleOut(%d) has %d combos, want 21", width, len(combos))
		}
		if err := ValidateCombos(combos, width); err != nil {
			t.Errorf("ScaleOut(%d): %v", width, err)
		}
		names := map[string]bool{}
		for _, c := range combos {
			if names[c.Name] {
				t.Errorf("ScaleOut(%d): duplicate combo name %s", width, c.Name)
			}
			names[c.Name] = true
		}
	}

	quad, err := ScaleOut(4)
	if err != nil {
		t.Fatal(err)
	}
	base := Table8()
	for i := range base {
		if quad[i].Name != base[i].Name || quad[i].Class != base[i].Class {
			t.Fatalf("ScaleOut(4)[%d] = %s/%s, want Table8's %s/%s",
				i, quad[i].Class, quad[i].Name, base[i].Class, base[i].Name)
		}
	}

	eight, err := ScaleOut(8)
	if err != nil {
		t.Fatal(err)
	}
	if eight[0].Name != "8xammp" {
		t.Errorf("8-core stress combo named %q, want 8xammp", eight[0].Name)
	}

	for _, bad := range []int{0, -4, 3, 6} {
		if _, err := ScaleOut(bad); err == nil {
			t.Errorf("ScaleOut(%d) accepted", bad)
		}
	}
}

// TestValidateCombosRejects covers the width checker's error paths.
func TestValidateCombosRejects(t *testing.T) {
	good := Combo{Class: "C1", Name: "4xammp", Cores: []string{"ammp", "ammp", "ammp", "ammp"}}
	if err := ValidateCombos([]Combo{good}, 4); err != nil {
		t.Fatal(err)
	}
	cases := map[string]Combo{
		"wrong width":   {Class: "C1", Name: "4xammp", Cores: []string{"ammp", "ammp"}},
		"bad name":      {Class: "C1", Name: "quad-ammp", Cores: []string{"ammp", "ammp", "ammp", "ammp"}},
		"unknown class": {Class: "C9", Name: "4xammp", Cores: []string{"ammp", "ammp", "ammp", "ammp"}},
		"wrong class":   {Class: "C2", Name: "4xammp", Cores: []string{"ammp", "ammp", "ammp", "ammp"}},
		"unknown bench": {Class: "C1", Name: "4xnope", Cores: []string{"nope", "nope", "nope", "nope"}},
	}
	for name, combo := range cases {
		if err := ValidateCombos([]Combo{combo}, 4); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := ValidateCombos(nil, 5); err == nil {
		t.Error("non-multiple-of-4 width accepted")
	}
}
