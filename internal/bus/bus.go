// Package bus models the on-chip snoop interconnect of Table 4: a 16-byte
// wide split-transaction bus running at a 4:1 core-to-bus clock ratio with
// 1 bus-cycle arbitration. The model is occupancy-based: each transaction
// (address/snoop broadcast, data-block transfer, write-back drain) occupies
// the bus for its transfer time.
//
// Because the bus is split-transaction, it is NOT held between a request
// and its (much later) reply: a DRAM fill's data phase reserves bus time
// ~300 cycles in the future, and address phases issued meanwhile must slot
// into the gap before it. The model therefore keeps a short calendar of
// future busy intervals and places each transaction into the earliest gap
// at or after its request time, which captures serialization and
// contention without hogging the bus across memory latency.
package bus

import (
	"fmt"
	"sort"
)

// Kind labels a bus transaction for accounting.
type Kind uint8

const (
	// KindSnoop is an address-only broadcast: a CC spill request, a
	// block-retrieval request, or a memory request (one address beat).
	KindSnoop Kind = iota
	// KindData is a full cache-block transfer (spill data, peer-to-peer
	// forward, or memory fill).
	KindData
	// KindWriteback is a dirty-block drain from a write buffer to memory.
	KindWriteback

	numKinds
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindSnoop:
		return "snoop"
	case KindData:
		return "data"
	case KindWriteback:
		return "writeback"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Stats aggregates bus activity.
type Stats struct {
	Transactions [numKinds]int64
	BusyCycles   int64 // total core cycles the bus was occupied
	WaitCycles   int64 // total core cycles requests spent queued
}

// Count returns the number of transactions of kind k.
func (s Stats) Count(k Kind) int64 { return s.Transactions[k] }

// interval is one scheduled occupancy [start, end).
type interval struct {
	start, end int64
}

// calendar is one arbitrated resource: a sorted list of future busy
// intervals.
type calendar struct {
	busy    []interval
	horizon int64 // requests older than this may have been pruned
}

// Bus is the occupancy model. The split-transaction bus has independent
// address and data paths: snoop/request broadcasts (KindSnoop) arbitrate
// for the address path, block transfers and write-back drains for the data
// path.
//
// The Bus is not safe for concurrent use and is deliberately unlocked: it
// is shared cross-core state owned by the scheme controller, and the
// driver (internal/cmp) makes every controller call on one goroutine.
type Bus struct {
	widthBytes int
	speedRatio int   // core cycles per bus cycle
	arbCycles  int64 // arbitration overhead in core cycles
	blockBytes int

	addrPath calendar
	dataPath calendar

	stats Stats
}

// New builds a bus. widthBytes is the data-path width, speedRatio the
// core:bus clock ratio, arbBusCycles the arbitration time in bus cycles,
// and blockBytes the cache-block size moved by data transactions.
func New(widthBytes, speedRatio, arbBusCycles, blockBytes int) (*Bus, error) {
	if widthBytes <= 0 || speedRatio <= 0 || arbBusCycles < 0 || blockBytes <= 0 {
		return nil, fmt.Errorf("bus: invalid parameters width=%d ratio=%d arb=%d block=%d",
			widthBytes, speedRatio, arbBusCycles, blockBytes)
	}
	return &Bus{
		widthBytes: widthBytes,
		speedRatio: speedRatio,
		arbCycles:  int64(arbBusCycles * speedRatio),
		blockBytes: blockBytes,
	}, nil
}

// MustNew is New but panics on error.
func MustNew(widthBytes, speedRatio, arbBusCycles, blockBytes int) *Bus {
	b, err := New(widthBytes, speedRatio, arbBusCycles, blockBytes)
	if err != nil {
		panic(err)
	}
	return b
}

// duration returns the core-cycle occupancy of a transaction of kind k.
// Address-path arbitration is pipelined with the previous beat, so a snoop
// occupies the path for just its broadcast beat; data transfers pay
// arbitration plus ceil(block/width) beats.
func (b *Bus) duration(k Kind) int64 {
	switch k {
	case KindSnoop:
		return int64(b.speedRatio)
	default:
		// Beats of back-to-back transfers pipeline through the split bus,
		// so a block transfer's exclusive occupancy is half its raw beat
		// time plus arbitration.
		beats := (b.blockBytes + b.widthBytes - 1) / b.widthBytes
		return b.arbCycles + int64(beats*b.speedRatio)/2
	}
}

// path selects the calendar serving kind k.
func (b *Bus) path(k Kind) *calendar {
	if k == KindSnoop {
		return &b.addrPath
	}
	return &b.dataPath
}

// Acquire schedules a transaction of kind k requested at core-cycle now,
// placing it in the earliest gap of its path's calendar at or after now.
// It returns the cycle the transaction completes.
func (b *Bus) Acquire(now int64, k Kind) (doneAt int64) {
	c := b.path(k)
	if now < c.horizon {
		now = c.horizon
	}
	dur := b.duration(k)
	start := c.place(now, dur)
	b.stats.Transactions[k]++
	b.stats.BusyCycles += dur
	b.stats.WaitCycles += start - now
	return start + dur
}

// place finds the earliest gap of length dur at or after t, inserts the
// reservation and returns its start. The busy list is always sorted by
// start and its intervals are disjoint (every reservation lands in a gap),
// so ends are monotonic too: a binary search finds the first interval that
// can conflict — everything before it ends at or before t — and the gap
// walk continues from there instead of scanning the whole calendar.
func (c *calendar) place(t, dur int64) int64 {
	cur := t
	// sort.Search's parameter does not escape, so this comparator is
	// stack-allocated (pinned by TestSteadyStateAllocs in internal/cmp).
	pos := sort.Search(len(c.busy), func(i int) bool { return c.busy[i].end > cur })
	for pos < len(c.busy) && c.busy[pos].start < cur+dur {
		cur = c.busy[pos].end
		pos++
	}
	// Insert keeping start order. pos is the first interval starting after
	// the chosen slot (every earlier interval ends at or before cur), so a
	// single memmove keeps the invariant — no re-sort is ever needed. The
	// append is amortized: pruning caps len, so capacity reaches a steady
	// state.
	c.busy = append(c.busy, interval{})
	copy(c.busy[pos+1:], c.busy[pos:])
	c.busy[pos] = interval{start: cur, end: cur + dur}
	// Prune only once the calendar has accumulated enough entries to
	// matter. Stale entries below the prune threshold are harmless — they
	// sit wholly in the past of every placeable request (timestamps
	// regress far less than the prune slack), so the binary search simply
	// skips them.
	if len(c.busy) >= pruneLen {
		c.prune(t)
	}
	return cur
}

// pruneLen is the calendar length that triggers a prune. A busy bus keeps
// more intervals than this alive within the prune slack (100-230 in the
// evaluation's runs), so there a prune runs on nearly every placement and
// must cost no more than the placement's own binary search and memmove.
const pruneLen = 64

// prune drops calendar entries that can no longer affect placements. The
// quantum-stepped driver guarantees request timestamps regress by at most a
// few quanta; a generous slack keeps pruning safe.
//
// The intervals are disjoint and sorted by start, so their ends are sorted
// too, and the stale ones (ending before the horizon) form a prefix: a
// binary search finds it and one memmove drops it.
func (c *calendar) prune(now int64) {
	const slack = 4096
	cut := now - slack
	if cut > c.horizon {
		c.horizon = cut
	}
	h := c.horizon
	stale := sort.Search(len(c.busy), func(i int) bool { return c.busy[i].end >= h })
	if stale > 0 {
		c.busy = c.busy[:copy(c.busy, c.busy[stale:])]
	}
}

// hasGap reports whether the calendar is free for dur cycles at exactly t:
// the first interval ending after t either starts beyond the window or
// overlaps it.
func (c *calendar) hasGap(t, dur int64) bool {
	i := sort.Search(len(c.busy), func(k int) bool { return c.busy[k].end > t })
	return i == len(c.busy) || c.busy[i].start >= t+dur
}

// TryAcquire schedules a transaction only if its path has an immediate gap
// at now, returning ok=false otherwise. Write-buffer drains use it to
// steal idle cycles without delaying demand traffic.
func (b *Bus) TryAcquire(now int64, k Kind) (doneAt int64, ok bool) {
	c := b.path(k)
	if now < c.horizon {
		now = c.horizon
	}
	if !c.hasGap(now, b.duration(k)) {
		return 0, false
	}
	return b.Acquire(now, k), true
}

// Stats returns a snapshot of activity counters.
func (b *Bus) Stats() Stats { return b.stats }
