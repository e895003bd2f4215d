package schemes

import (
	"reflect"
	"testing"

	"snug/internal/config"
)

// canonicalSpecs are accepted spec forms with their canonical strings;
// badSpecs must all be refused. Both seed FuzzSpecParse.
var (
	canonicalSpecs = []struct {
		in, want string
	}{
		{"L2P", "L2P"},
		{" L2S ", "L2S"},
		{"CC", "CC"},
		{"CC(75%)", "CC(75%)"},
		{"CC(75)", "CC(75%)"},
		{"CC( 75 )", "CC(75%)"},
		{"CC(0)", "CC(0%)"},
		{"CC(100%)", "CC(100%)"},
		{"DSR", "DSR"},
	}
	badSpecs = []string{
		"", "victim-cache", "CC(", "CC()", "CC(,)", "CC(25,50)", "CC(no)",
		"CC(-1)", "CC(101)", "L2P(3)", "2CC", "CC)",
	}
)

// TestSpecParseCanonical pins the canonical string of every accepted spec
// form. These strings key checkpoint stores, so they must never change.
func TestSpecParseCanonical(t *testing.T) {
	for _, c := range canonicalSpecs {
		sp, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if sp.String() != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, sp.String(), c.want)
		}
		// Canonical forms round-trip.
		again, err := Parse(sp.String())
		if err != nil || !reflect.DeepEqual(again, sp) {
			t.Errorf("round trip of %q: %+v, %v", sp.String(), again, err)
		}
	}
}

func TestSpecParseErrors(t *testing.T) {
	for _, in := range badSpecs {
		if sp, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted as %+v", in, sp)
		}
	}
}

// FuzzSpecParse: every spec Parse accepts round-trips through String, and
// its canonical string is a fixed point of Parse followed by String.
func FuzzSpecParse(f *testing.F) {
	for _, c := range canonicalSpecs {
		f.Add(c.in)
	}
	for _, bad := range badSpecs {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, text string) {
		sp, err := Parse(text)
		if err != nil {
			return
		}
		again, err := Parse(sp.String())
		if err != nil || !reflect.DeepEqual(again, sp) {
			t.Fatalf("Parse(%q) = %+v renders as %q, which parses to %+v, %v", text, sp, sp.String(), again, err)
		}
		if again.String() != sp.String() {
			t.Fatalf("Parse(%q): canonical %q re-renders as %q", text, sp.String(), again.String())
		}
	})
}

// TestSpecBuild checks that parsed specs build the matching controller and
// that the CC spill percentage flows from the spec argument.
func TestSpecBuild(t *testing.T) {
	cfg := config.TestScale()
	for spec, wantName := range map[string]string{
		"L2P":     "L2P",
		"L2S":     "L2S",
		"CC(25%)": "CC(25%)",
		"DSR":     "DSR",
	} {
		c, err := Build(spec, cfg)
		if err != nil {
			t.Fatalf("Build(%q): %v", spec, err)
		}
		if c.Name() != wantName {
			t.Errorf("Build(%q).Name() = %q, want %q", spec, c.Name(), wantName)
		}
	}
	// A bare CC spec inherits the configured spill probability.
	cfg.CC.SpillPercent = 50
	c, err := Build("CC", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "CC(50%)" {
		t.Errorf("bare CC built %q, want the cfg fallback CC(50%%)", c.Name())
	}
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, f Family) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(f)
	}
	nop := func(_ Spec, cfg config.System) (Controller, error) { return NewL2P(cfg), nil }
	mustPanic("duplicate", Family{Name: "L2P", New: nop})
	mustPanic("empty name", Family{Name: "", New: nop})
	mustPanic("bad name", Family{Name: "a b", New: nop})
	mustPanic("nil factory", Family{Name: "Xyz"})
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	want := []string{"CC", "DSR", "L2P", "L2S"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() = %v missing %s", names, w)
		}
	}
	if !sortedStrings(names) {
		t.Errorf("Names() = %v not sorted", names)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}
