package schemes

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"snug/internal/config"
)

// Spec is a parsed scheme specification: a registered family name plus its
// canonicalized argument list, e.g. {Family: "CC", Args: ["75%"]}. A Spec's
// String form is the scheme's label everywhere — CLI flags, sweep job keys,
// checkpoint-store keys, figure columns — so canonicalization rules must
// stay stable across releases (see DESIGN.md §"Scheme specs").
type Spec struct {
	Family string
	Args   []string
}

// String renders the spec in canonical form: "L2P", "CC(75%)". It is the
// inverse of Parse for every canonical spec.
func (s Spec) String() string {
	if len(s.Args) == 0 {
		return s.Family
	}
	return s.Family + "(" + strings.Join(s.Args, ",") + ")"
}

// New builds the controller the spec describes.
func (s Spec) New(cfg config.System) (Controller, error) {
	f, ok := lookup(s.Family)
	if !ok {
		return nil, unknownFamilyErr(s.Family)
	}
	return f.New(s, cfg)
}

// Family describes one registered scheme family: a name, an argument
// canonicalizer, and a controller factory.
type Family struct {
	// Name is the spec keyword, e.g. "CC". Case-sensitive.
	Name string
	// Canon validates a raw argument list and returns its canonical form
	// (e.g. ["75"] -> ["75%"]). nil means the family takes no arguments.
	Canon func(args []string) ([]string, error)
	// New builds a controller from a canonicalized spec.
	New func(spec Spec, cfg config.System) (Controller, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Family{}
)

// Register adds a scheme family to the spec registry. It panics on an
// empty or malformed name, a nil factory, or a duplicate registration —
// all programmer errors at package-init time.
func Register(f Family) {
	if !validFamilyName(f.Name) {
		panic(fmt.Sprintf("schemes: invalid family name %q", f.Name))
	}
	if f.New == nil {
		panic(fmt.Sprintf("schemes: family %s registered without a factory", f.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[f.Name]; dup {
		panic(fmt.Sprintf("schemes: family %s registered twice", f.Name))
	}
	registry[f.Name] = f
}

// Names returns the registered family names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func lookup(name string) (Family, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := registry[name]
	return f, ok
}

func unknownFamilyErr(name string) error {
	return fmt.Errorf("schemes: unknown scheme %q (registered: %s)", name, strings.Join(Names(), ", "))
}

// validFamilyName accepts a letter followed by letters and digits.
func validFamilyName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'A' && r <= 'Z' || r >= 'a' && r <= 'z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Parse parses a scheme spec string — "NAME" or "NAME(arg,arg,...)" — into
// its canonical Spec. The family must be registered; its Canon hook
// validates and normalizes the arguments, so Parse("CC(75)") and
// Parse("CC(75%)") yield the same Spec.
func Parse(text string) (Spec, error) {
	text = strings.TrimSpace(text)
	name := text
	var raw []string
	if open := strings.IndexByte(text, '('); open >= 0 {
		if !strings.HasSuffix(text, ")") {
			return Spec{}, fmt.Errorf("schemes: spec %q: missing closing parenthesis", text)
		}
		name = text[:open]
		inner := text[open+1 : len(text)-1]
		if strings.TrimSpace(inner) == "" {
			return Spec{}, fmt.Errorf("schemes: spec %q: empty argument list", text)
		}
		for _, a := range strings.Split(inner, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return Spec{}, fmt.Errorf("schemes: spec %q: empty argument", text)
			}
			raw = append(raw, a)
		}
	}
	if !validFamilyName(name) {
		return Spec{}, fmt.Errorf("schemes: spec %q: malformed scheme name %q", text, name)
	}
	f, ok := lookup(name)
	if !ok {
		return Spec{}, unknownFamilyErr(name)
	}
	if len(raw) > 0 && f.Canon == nil {
		return Spec{}, fmt.Errorf("schemes: %s takes no arguments, got %q", name, text)
	}
	args := raw
	if f.Canon != nil {
		var err error
		if args, err = f.Canon(raw); err != nil {
			return Spec{}, fmt.Errorf("schemes: spec %q: %w", text, err)
		}
	}
	return Spec{Family: name, Args: args}, nil
}

// MustParse is Parse but panics on error. Intended for spec literals.
func MustParse(text string) Spec {
	s, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return s
}

// Build parses a spec string and constructs its controller in one call.
func Build(text string, cfg config.System) (Controller, error) {
	s, err := Parse(text)
	if err != nil {
		return nil, err
	}
	return s.New(cfg)
}

// canonCCArgs canonicalizes CC's spill-probability argument: "75" or "75%"
// becomes ["75%"], and a probability outside config.CCSpillPercents is
// refused. No argument keeps the spec bare — the factory then falls back
// to cfg.CC.SpillPercent, preserving the pre-registry behaviour of
// building "CC" against a configured probability.
func canonCCArgs(args []string) ([]string, error) {
	switch len(args) {
	case 0:
		return nil, nil
	case 1:
		pct, err := strconv.Atoi(strings.TrimSuffix(args[0], "%"))
		if err != nil {
			return nil, fmt.Errorf("CC spill probability %q is not an integer percentage", args[0])
		}
		if !slices.Contains(config.CCSpillPercents, pct) {
			return nil, fmt.Errorf("CC spill probability %d%% not one of the paper's %v", pct, config.CCSpillPercents)
		}
		return []string{fmt.Sprintf("%d%%", pct)}, nil
	default:
		return nil, fmt.Errorf("CC takes one spill-probability argument, got %d", len(args))
	}
}

// noArgFactory adapts an argument-free constructor into a Family factory.
func noArgFactory(build func(config.System) Controller) func(Spec, config.System) (Controller, error) {
	return func(_ Spec, cfg config.System) (Controller, error) {
		return build(cfg), nil
	}
}

func init() {
	Register(Family{Name: "L2P", New: noArgFactory(func(cfg config.System) Controller { return NewL2P(cfg) })})
	Register(Family{Name: "L2S", New: noArgFactory(func(cfg config.System) Controller { return NewL2S(cfg) })})
	Register(Family{
		Name:  "CC",
		Canon: canonCCArgs,
		New: func(spec Spec, cfg config.System) (Controller, error) {
			pct := cfg.CC.SpillPercent
			if len(spec.Args) == 1 {
				var err error
				if pct, err = strconv.Atoi(strings.TrimSuffix(spec.Args[0], "%")); err != nil {
					return nil, fmt.Errorf("schemes: spec %s: %w", spec, err)
				}
			}
			return NewCC(cfg, pct), nil
		},
	})
	Register(Family{Name: "DSR", New: noArgFactory(func(cfg config.System) Controller { return NewDSR(cfg) })})
	Register(Family{Name: "SNUG", New: noArgFactory(func(cfg config.System) Controller { return NewSNUG(cfg) })})
}
