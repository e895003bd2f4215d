// Package mem models the off-chip side of the hierarchy: a DRAM with the
// paper's fixed 300-cycle access latency and the per-core L2 write-back
// buffer of Table 4 (FIFO, mergeable, 16 entries × 64 B, supporting direct
// reads).
package mem

import "fmt"

// DRAMStats aggregates memory-controller activity.
type DRAMStats struct {
	Reads  int64
	Writes int64
	// BankBusy is always 0: the memory has no banks (Table 4's one fixed
	// latency). The field stays because every result digest and stored
	// result prints the struct.
	BankBusy int64
}

// DRAM is the off-chip memory: every access completes a fixed latency
// after it starts, with no queuing and no bank conflicts.
type DRAM struct {
	latency int64
	stats   DRAMStats
}

// NewDRAM builds a DRAM with the given access latency in core cycles.
func NewDRAM(latency int64) (*DRAM, error) {
	if latency <= 0 {
		return nil, fmt.Errorf("mem: DRAM latency must be positive, got %d", latency)
	}
	return &DRAM{latency: latency}, nil
}

// MustDRAM is NewDRAM but panics on error.
func MustDRAM(latency int64) *DRAM {
	d, err := NewDRAM(latency)
	if err != nil {
		panic(err)
	}
	return d
}

// Read schedules a read beginning at now and returns its completion cycle.
func (d *DRAM) Read(now int64) int64 {
	d.stats.Reads++
	return now + d.latency
}

// Write schedules a write beginning at now and returns its completion
// cycle. Writes are posted (callers typically do not wait on them).
func (d *DRAM) Write(now int64) int64 {
	d.stats.Writes++
	return now + d.latency
}

// Stats returns a snapshot of the counters.
func (d *DRAM) Stats() DRAMStats { return d.stats }
