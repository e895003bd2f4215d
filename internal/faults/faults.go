// Package faults is the deterministic fault-injection harness behind the
// sweep engine's failure model (DESIGN.md §"Failure model"). A Spec carries
// per-attempt probabilities for three fault classes — injected job panics,
// injected job errors, and injected checkpoint-write failures — and wraps a
// sweep.Job (or serves as a sweep PutHook) so that every fault decision is
// a pure function of (job identity, attempt number, salt) through
// stats.Mix64. Reproducibility is the point: the same spec over the same
// sweep injects the same faults at any parallelism and on any host, so a
// chaos test that SIGKILLs a fault-injected sweep mid-run can assert the
// resumed checkpoint store is byte-identical to an uninterrupted run's.
//
// Faults fire *instead of* the wrapped work (a panicking attempt never
// starts the simulation), and the attempt counter advances per decision,
// so a retry of a faulted attempt draws fresh — a job with fault
// probability p and r retries fails permanently with probability p^(r+1).
// Results are untouched by construction: a surviving attempt runs the real
// job with its unmodified identity-derived seed.
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"snug/internal/cmp"
	"snug/internal/stats"
	"snug/internal/sweep"
)

// Spec holds per-attempt injection probabilities, each in [0, 1].
type Spec struct {
	Panic   float64 // probability an attempt panics instead of running
	Err     float64 // probability an attempt errors instead of running
	PutFail float64 // probability a checkpoint write fails
}

// ParseSpec parses the CLI injection grammar: a comma-separated list of
// <class>:<probability> terms, e.g. "panic:0.02,err:0.05,putfail:0.01".
// Classes are panic, err and putfail; each may appear at most once; an
// empty string is the zero (disabled) spec.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	seen := map[string]bool{}
	for _, term := range strings.Split(text, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(term), ":")
		if !ok {
			return Spec{}, fmt.Errorf("faults: bad term %q (want <class>:<probability>)", term)
		}
		name = strings.TrimSpace(name)
		p, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		// Written so NaN, which compares false both ways, is refused too.
		if err != nil || !(p >= 0 && p <= 1) {
			return Spec{}, fmt.Errorf("faults: bad probability %q for %s (want a number in [0,1])", val, name)
		}
		if seen[name] {
			return Spec{}, fmt.Errorf("faults: class %s given twice", name)
		}
		seen[name] = true
		switch name {
		case "panic":
			s.Panic = p
		case "err":
			s.Err = p
		case "putfail":
			s.PutFail = p
		default:
			return Spec{}, fmt.Errorf("faults: unknown class %q (want panic, err or putfail)", name)
		}
	}
	return s, nil
}

// String renders the spec in ParseSpec's grammar (classes in fixed order,
// zero-probability classes omitted; "" for the disabled spec).
func (s Spec) String() string {
	var terms []string
	for _, c := range []struct {
		name string
		p    float64
	}{{"panic", s.Panic}, {"err", s.Err}, {"putfail", s.PutFail}} {
		if c.p > 0 {
			terms = append(terms, c.name+":"+strconv.FormatFloat(c.p, 'g', -1, 64))
		}
	}
	return strings.Join(terms, ",")
}

// injector tracks per-identity attempt counters so consecutive attempts of
// one job draw independent fault decisions while two runs of the same
// sweep draw identical sequences. Identities must be unique per logical
// job: the job wrapper keys by the derived seed (unique per replicate even
// though replicates share one wrapped closure), the put hook by the job
// key.
type injector struct {
	salt uint64
	mu   sync.Mutex
	next map[uint64]uint64
}

func newInjector(salt uint64) *injector {
	return &injector{salt: salt, next: make(map[uint64]uint64)}
}

// draw returns a uniform [0,1) variate for identity id's next attempt —
// Mix64 over (identity, attempt, salt), nothing else.
func (in *injector) draw(id uint64) float64 {
	in.mu.Lock()
	attempt := in.next[id]
	in.next[id] = attempt + 1
	in.mu.Unlock()
	x := stats.Mix64(id ^ in.salt ^ stats.Mix64(attempt+0x9e3779b97f4a7c15))
	return float64(x>>11) / (1 << 53)
}

// Wrap returns jobs with each Run wrapped by the spec's panic/err
// injection; the disabled spec returns jobs unchanged. Fault decisions
// derive from (job seed, attempt, salt, job key) — pass sweep
// Options.BaseSeed (or any fixed value) as salt. Decisions key on the run
// seed rather than shared closure state so sweep replicate expansion,
// which copies Job structs sharing one Run closure, still draws an
// independent deterministic sequence per replicate.
func (s Spec) Wrap(salt uint64, jobs []sweep.Job) []sweep.Job {
	if s.Panic <= 0 && s.Err <= 0 {
		return jobs
	}
	out := make([]sweep.Job, len(jobs))
	for i, j := range jobs {
		in := newInjector(salt ^ stats.HashString(j.Key))
		run := j.Run
		key := j.Key
		j.Run = func(seed uint64) (cmp.RunResult, error) {
			u := in.draw(seed)
			switch {
			case u < s.Panic:
				panic(fmt.Sprintf("faults: injected panic (job %s)", key))
			case u < s.Panic+s.Err:
				return cmp.RunResult{}, fmt.Errorf("faults: injected error (job %s)", key)
			}
			return run(seed)
		}
		out[i] = j
	}
	return out
}

// PutHook returns a sweep Options.PutHook injecting checkpoint-write
// failures per the spec (nil for a spec without putfail, leaving the hook
// unset). Decisions derive from (job key, attempt, salt).
func (s Spec) PutHook(salt uint64) func(key string) error {
	if s.PutFail <= 0 {
		return nil
	}
	in := newInjector(salt)
	return func(key string) error {
		if in.draw(stats.HashString(key)) < s.PutFail {
			return fmt.Errorf("faults: injected checkpoint-write failure (job %s)", key)
		}
		return nil
	}
}
