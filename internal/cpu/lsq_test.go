package cpu

import (
	"math/rand"
	"slices"
	"testing"

	"snug/internal/config"
	"snug/internal/isa"
)

// refLSQ is the pre-rewrite reference implementation: eager O(n)
// compaction and min scans on every reserve. The lazily-compacted queue
// must reproduce its dispatch delays, stall accounting and live occupancy
// exactly.
type refLSQ struct {
	q     []int64
	stall int64
}

func (r *refLSQ) release(e int64) {
	w := 0
	for _, t := range r.q {
		if t > e {
			r.q[w] = t
			w++
		}
	}
	r.q = r.q[:w]
}

func (r *refLSQ) reserve(e int64, size int) int64 {
	r.release(e)
	if len(r.q) < size {
		return e
	}
	min := r.q[0]
	for _, t := range r.q[1:] {
		if t < min {
			min = t
		}
	}
	if min > e {
		r.stall += min - e
		e = min
	}
	r.release(e)
	return e
}

// live returns the sorted completion times still outstanding at cycle e.
func live(q []int64, e int64) []int64 {
	out := make([]int64, 0, len(q))
	for _, t := range q {
		if t > e {
			out = append(out, t)
		}
	}
	slices.Sort(out)
	return out
}

// TestLSQMatchesReference drives the lazy queue and the reference through
// identical random reserve/push sequences (dispatch cycles monotonic, as in
// the core) and checks dispatch delay, stall total and live queue contents
// agree at every step.
func TestLSQMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const size = 8
		c := &Core{lsq: make([]int64, 0, size)}
		ref := &refLSQ{}
		e := int64(0)
		for i := 0; i < 5000; i++ {
			e += int64(rng.Intn(4))
			got := e
			if c.lsqFull() { // the core reserves only at capacity
				got = c.reserveLSQ(e)
			}
			want := ref.reserve(e, size)
			if got != want {
				t.Fatalf("seed %d op %d: reserveLSQ(%d) = %d, reference %d", seed, i, e, got, want)
			}
			if c.stats.LSQStall != ref.stall {
				t.Fatalf("seed %d op %d: LSQStall = %d, reference %d", seed, i, c.stats.LSQStall, ref.stall)
			}
			done := got + 1 + int64(rng.Intn(30))
			c.pushLSQ(done)
			ref.q = append(ref.q, done)
			// The queue compacts lazily, so compare only live entries
			// (t > e); completed leftovers are unobservable.
			if heapLive, refLive := live(c.lsq, got), live(ref.q, got); !slices.Equal(heapLive, refLive) {
				t.Fatalf("seed %d op %d: live queue contents %v, reference %v", seed, i, heapLive, refLive)
			}
			e = got
		}
	}
}

// TestLSQStallAtFullOccupancy pins the stall behaviour when the queue is
// saturated: with 2 entries and 10-cycle loads, steady state admits one
// load per 5 cycles, and every extra load charges the wait to LSQStall.
func TestLSQStallAtFullOccupancy(t *testing.T) {
	cfg := config.Default().Core
	cfg.LSQSize = 2
	c := NewCore(cfg)
	const cycles = 10_000
	c.Run(cycles, &fixedStream{pattern: []isa.Instr{{Kind: isa.KindLoad, Addr: 0x1000}}}, flatMem(10))
	st := c.Stats()
	ipc := float64(st.Instructions) / float64(cycles)
	t.Logf("LSQ=2 lat=10 loads: IPC=%.3f LSQStall=%d", ipc, st.LSQStall)
	// Throughput bound: at most LSQSize in-flight loads per 10-cycle window.
	if ipc < 0.15 || ipc > 0.25 {
		t.Errorf("IPC = %.3f, want ~0.2 (LSQ-occupancy bound)", ipc)
	}
	if st.LSQStall == 0 {
		t.Error("LSQStall = 0 at full occupancy, want the dispatch waits accounted")
	}
	// Essentially every cycle not spent dispatching is an LSQ wait here: the
	// accounted stall must dominate the run.
	if st.LSQStall < cycles/2 {
		t.Errorf("LSQStall = %d over %d cycles, want the majority accounted to the LSQ", st.LSQStall, cycles)
	}
}

// TestLSQNoStallBelowCapacity checks the accounting stays zero when the
// queue never fills.
func TestLSQNoStallBelowCapacity(t *testing.T) {
	cfg := config.Default().Core
	// Issue width 8 with ~11 cycles in flight peaks near 90 entries; 256
	// leaves the queue genuinely underfilled.
	cfg.LSQSize = 256
	c := NewCore(cfg)
	c.Run(10_000, &fixedStream{pattern: []isa.Instr{{Kind: isa.KindLoad, Addr: 0x1000}}}, flatMem(10))
	if st := c.Stats(); st.LSQStall != 0 {
		t.Errorf("LSQStall = %d with an underfilled queue, want 0", st.LSQStall)
	}
}
