// Package core implements the building blocks of the paper's contribution,
// the SNUG (Set-level Non-Uniformity identifier and Grouper) L2 cache
// design of §3, and its storage-overhead model (Tables 2 and 3).
//
// Per L2 set, SNUG keeps a shadow tag array (same associativity as the
// real set) recording locally evicted blocks, and a k-bit saturating
// counter estimating σ = shadowHits / (realHits + shadowHits) — the hit-rate
// gain available from doubling the set's capacity (§3.1.2). The counter's
// MSB classifies the set as a Giver or Taker; the G/T bits of all sets form
// the G/T vector (§3.1.3). Monitor holds one slice's shadow array,
// counters and vector. During the Sets-Grouping stage, taker sets spill
// clean victims to peer giver sets selected by the index-bit-flipping
// scheme (§3.2), and misses broadcast retrievals resolved with at most one
// unambiguous peer-set search; Place makes both decisions. The controller
// that drives them, SNUG, lives in internal/schemes beside the other four
// schemes, whose cooperative access path it shares.
package core

import "fmt"

// SatCounter is the k-bit saturating counter of §3.1.2 (Figures 6–7),
// paired with a mod-p hit counter: every shadow-set hit increments the
// counter; after every p hits on the real or shadow set it decrements.
// The MSB then indicates whether σ > 1/p, i.e. whether doubling the set's
// capacity buys at least a 1/p hit-rate increase.
type SatCounter struct {
	v    uint16
	max  uint16
	msb  uint16
	p    uint16
	modp uint16
}

// NewSatCounter builds a k-bit counter with decrement divisor p,
// initialized to 2^(k-1)-1 (all bits below the MSB set — Figure 7).
func NewSatCounter(bits, p int) (SatCounter, error) {
	if bits < 2 || bits > 15 {
		return SatCounter{}, fmt.Errorf("core: counter width %d out of range [2,15]", bits)
	}
	if p <= 0 {
		return SatCounter{}, fmt.Errorf("core: p must be positive, got %d", p)
	}
	c := SatCounter{
		max: uint16(1)<<bits - 1,
		msb: uint16(1) << (bits - 1),
		p:   uint16(p),
	}
	c.Reset()
	return c, nil
}

// MustSatCounter is NewSatCounter but panics on error.
func MustSatCounter(bits, p int) SatCounter {
	c, err := NewSatCounter(bits, p)
	if err != nil {
		panic(err)
	}
	return c
}

// Reset restores the initial value 2^(k-1)-1 and clears the mod-p counter.
func (c *SatCounter) Reset() {
	c.v = c.msb - 1
	c.modp = 0
}

// ShadowHit applies a shadow-set hit: +1 (saturating), plus the hit-pulse
// accounting shared with real-set hits.
func (c *SatCounter) ShadowHit() {
	if c.v < c.max {
		c.v++
	}
	c.hitPulse()
}

// RealHit applies a real-set hit: hit-pulse accounting only.
func (c *SatCounter) RealHit() { c.hitPulse() }

// hitPulse counts one hit on the real-or-shadow pair; every p-th hit
// decrements the counter (floored at 0).
func (c *SatCounter) hitPulse() {
	c.modp++
	if c.modp >= c.p {
		c.modp = 0
		if c.v > 0 {
			c.v--
		}
	}
}

// Taker reports the counter's MSB: true means the set demands more
// capacity than its slice provides (≥ 1/p hit-rate gain from doubling) and
// should spill; false marks a giver.
func (c *SatCounter) Taker() bool { return c.v&c.msb != 0 }

// Value returns the raw counter value (for tests and reporting).
func (c *SatCounter) Value() int { return int(c.v) }
