package bus

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refCalendar transcribes the calendar as it stood before pruning dropped
// the stale prefix by binary search: the same trigger and horizon, with a
// prune that scans every entry and keeps those ending at or after the
// horizon.
type refCalendar struct {
	busy    []interval
	horizon int64
}

func (c *refCalendar) place(t, dur int64) int64 {
	cur := t
	pos := sort.Search(len(c.busy), func(i int) bool { return c.busy[i].end > cur })
	for pos < len(c.busy) && c.busy[pos].start < cur+dur {
		cur = c.busy[pos].end
		pos++
	}
	c.busy = append(c.busy, interval{})
	copy(c.busy[pos+1:], c.busy[pos:])
	c.busy[pos] = interval{start: cur, end: cur + dur}
	if len(c.busy) >= pruneLen {
		c.prune(t)
	}
	return cur
}

func (c *refCalendar) prune(now int64) {
	const slack = 4096
	cut := now - slack
	if cut > c.horizon {
		c.horizon = cut
	}
	w := 0
	for _, iv := range c.busy {
		if iv.end >= c.horizon {
			c.busy[w] = iv
			w++
		}
	}
	c.busy = c.busy[:w]
}

// refBus is Bus over refCalendars; it takes its durations from b, whose
// duration method reads only the bus parameters.
type refBus struct {
	b                  *Bus
	addrPath, dataPath refCalendar
	stats              Stats
}

func (r *refBus) path(k Kind) *refCalendar {
	if k == KindSnoop {
		return &r.addrPath
	}
	return &r.dataPath
}

func (r *refBus) Acquire(now int64, k Kind) int64 {
	c := r.path(k)
	if now < c.horizon {
		now = c.horizon
	}
	dur := r.b.duration(k)
	start := c.place(now, dur)
	r.stats.Transactions[k]++
	r.stats.BusyCycles += dur
	r.stats.WaitCycles += start - now
	return start + dur
}

// TestCalendarMatchesReference drives Bus and refBus through identical
// random Acquire sequences whose timestamps drift forward but
// regress within a quantum, and now and then by more than the prune
// slack. Every return, the stats, both horizons and both calendars must
// agree after every call.
func TestCalendarMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := MustNew(1<<rng.Intn(6), 1+rng.Intn(4), rng.Intn(3), 1<<(3+rng.Intn(5)))
		ref := &refBus{b: b}
		// Requests arrive about one data transfer apart, so the data path
		// runs busy without its calendar growing without bound.
		gap := 2*b.duration(KindData) + 1
		base := int64(0)
		for op := 0; op < 10_000; op++ {
			base += rng.Int63n(gap)
			now := base + int64(rng.Intn(2000)) - 1000
			if rng.Intn(500) == 0 {
				now -= 6000 // past the slack: clamped to the horizon
			}
			k := Kind(rng.Intn(int(numKinds)))
			if got, want := b.Acquire(now, k), ref.Acquire(now, k); got != want {
				t.Fatalf("seed %d op %d: Acquire(%d, %v) = %d; reference %d", seed, op, now, k, got, want)
			}
			if b.Stats() != ref.stats {
				t.Fatalf("seed %d op %d: stats %+v; reference %+v", seed, op, b.Stats(), ref.stats)
			}
			for _, p := range []struct {
				got  *calendar
				want *refCalendar
			}{{&b.addrPath, &ref.addrPath}, {&b.dataPath, &ref.dataPath}} {
				if p.got.horizon != p.want.horizon || !slices.Equal(p.got.busy, p.want.busy) {
					t.Fatalf("seed %d op %d: calendar horizon %d, %d entries; reference %d, %d entries",
						seed, op, p.got.horizon, len(p.got.busy), p.want.horizon, len(p.want.busy))
				}
			}
		}
		if b.addrPath.horizon == 0 || b.dataPath.horizon == 0 {
			t.Fatalf("seed %d: a calendar never pruned", seed)
		}
	}
}
