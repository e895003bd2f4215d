package mem

import (
	"fmt"

	"snug/internal/addr"
)

// WriteBufferStats aggregates write-buffer activity.
type WriteBufferStats struct {
	Inserts     int64
	Merges      int64
	Drains      int64
	DirectReads int64 // read hits served straight from the buffer
	FullStalls  int64 // inserts that found the buffer full
	StallCycles int64 // cycles callers were delayed by full-buffer retirement
}

// WriteBuffer is the per-L2-slice write-back buffer of Table 4: a FIFO of
// block addresses with merging (a second write-back of a pending block folds
// into the existing entry) and direct-read support (an L2 miss whose block
// is still in the buffer is served from it, per Skadron & Clark [13]).
//
// Entries carry the cycle their DRAM write-back will complete; Drain
// retires entries opportunistically. If an insert finds the buffer full,
// the caller is stalled until the oldest entry retires.
type WriteBuffer struct {
	capacity int
	entries  []wbEntry // FIFO: entries[0] is oldest
	stats    WriteBufferStats
}

type wbEntry struct {
	block   addr.Addr
	readyAt int64 // when the DRAM write-back completes (0 = not yet issued)
}

// NewWriteBuffer builds a buffer with the given entry capacity.
func NewWriteBuffer(capacity int) (*WriteBuffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("mem: write buffer capacity must be positive, got %d", capacity)
	}
	return &WriteBuffer{capacity: capacity, entries: make([]wbEntry, 0, capacity)}, nil
}

// MustWriteBuffer is NewWriteBuffer but panics on error.
func MustWriteBuffer(capacity int) *WriteBuffer {
	w, err := NewWriteBuffer(capacity)
	if err != nil {
		panic(err)
	}
	return w
}

// Stats returns a snapshot of the counters.
func (w *WriteBuffer) Stats() WriteBufferStats { return w.stats }

// TakeBack serves a demand read from the buffer if block is pending: it
// counts a direct read and removes the entry, since the block re-enters
// the cache and the cache copy is again the newest, which cancels its
// write-back. It reports whether the block was found.
func (w *WriteBuffer) TakeBack(block addr.Addr) bool {
	for i := range w.entries {
		if w.entries[i].block == block {
			copy(w.entries[i:], w.entries[i+1:])
			w.entries = w.entries[:len(w.entries)-1]
			w.stats.DirectReads++
			return true
		}
	}
	return false
}

// Insert enqueues a dirty block write-back requested at cycle now. issue
// schedules the DRAM write and returns its completion cycle; it is invoked
// immediately for the entry at the head of an empty pipeline and lazily by
// Drain otherwise. Insert returns the cycle the *caller* may proceed: now,
// unless the buffer was full, in which case the caller stalls until the
// oldest entry retires.
func (w *WriteBuffer) Insert(now int64, block addr.Addr, issue func(start int64) (doneAt int64)) (proceedAt int64) {
	// Merge with a pending entry for the same block.
	for i := range w.entries {
		if w.entries[i].block == block {
			w.stats.Merges++
			return now
		}
	}
	proceedAt = now
	if len(w.entries) == w.capacity {
		// Stall: force-retire the oldest entry.
		w.stats.FullStalls++
		head := &w.entries[0]
		if head.readyAt == 0 {
			head.readyAt = issue(now)
		}
		if head.readyAt > proceedAt {
			w.stats.StallCycles += head.readyAt - proceedAt
			proceedAt = head.readyAt
		}
		w.retireHead()
	}
	w.entries = append(w.entries, wbEntry{block: block})
	w.stats.Inserts++
	return proceedAt
}

// Drain opportunistically issues and retires entries whose write-backs can
// complete by cycle now. issue performs the DRAM write (and bus transfer)
// and returns its completion cycle; issue may decline by returning a cycle
// beyond now, in which case the entry stays queued with its schedule.
func (w *WriteBuffer) Drain(now int64, issue func(start int64) (doneAt int64)) {
	for len(w.entries) > 0 {
		head := &w.entries[0]
		if head.readyAt == 0 {
			head.readyAt = issue(now)
		}
		if head.readyAt > now {
			return
		}
		w.retireHead()
	}
}

func (w *WriteBuffer) retireHead() {
	copy(w.entries, w.entries[1:])
	w.entries = w.entries[:len(w.entries)-1]
	w.stats.Drains++
}
