// Package mem models the off-chip side of the hierarchy: a DRAM with the
// paper's fixed 300-cycle access latency (plus an optional bank-conflict
// extension) and the per-core L2 write-back buffer of Table 4 (FIFO,
// mergeable, 16 entries × 64 B, supporting direct reads).
package mem

import (
	"fmt"

	"snug/internal/addr"
)

// DRAMStats aggregates memory-controller activity.
type DRAMStats struct {
	Reads    int64
	Writes   int64
	BankBusy int64 // cycles added by bank conflicts (0 with Banks <= 1)
}

// DRAM is the off-chip memory model. With Banks == 0 (or 1) it is the
// paper's fixed-latency model; with more banks, consecutive accesses to the
// same bank serialize on the bank's busy window, a conservative extension
// used by the contention ablation.
type DRAM struct {
	latency  int64
	banks    int
	bankMask uint64
	offBits  uint
	busyTo   []int64
	stats    DRAMStats
}

// NewDRAM builds a DRAM with the given access latency in core cycles.
// banks <= 1 disables bank modeling. blockBytes positions the bank
// interleaving above the block offset.
func NewDRAM(latency int64, banks, blockBytes int) (*DRAM, error) {
	if latency <= 0 {
		return nil, fmt.Errorf("mem: DRAM latency must be positive, got %d", latency)
	}
	if banks < 0 || (banks > 1 && banks&(banks-1) != 0) {
		return nil, fmt.Errorf("mem: bank count %d must be 0/1 or a power of two", banks)
	}
	d := &DRAM{latency: latency, banks: banks}
	if banks > 1 {
		d.bankMask = uint64(banks - 1)
		bb := blockBytes
		for bb > 1 {
			bb >>= 1
			d.offBits++
		}
		d.busyTo = make([]int64, banks)
	}
	return d, nil
}

// MustDRAM is NewDRAM but panics on error.
func MustDRAM(latency int64, banks, blockBytes int) *DRAM {
	d, err := NewDRAM(latency, banks, blockBytes)
	if err != nil {
		panic(err)
	}
	return d
}

// Read schedules a read of a beginning at now and returns its completion
// cycle.
func (d *DRAM) Read(now int64, a addr.Addr) int64 {
	d.stats.Reads++
	return d.access(now, a)
}

// Write schedules a write of a beginning at now and returns its completion
// cycle. Writes are posted (callers typically do not wait on them).
func (d *DRAM) Write(now int64, a addr.Addr) int64 {
	d.stats.Writes++
	return d.access(now, a)
}

func (d *DRAM) access(now int64, a addr.Addr) int64 {
	if d.banks <= 1 {
		return now + d.latency
	}
	b := (uint64(a) >> d.offBits) & d.bankMask
	start := now
	if d.busyTo[b] > start {
		d.stats.BankBusy += d.busyTo[b] - start
		start = d.busyTo[b]
	}
	done := start + d.latency
	d.busyTo[b] = done
	return done
}

// Stats returns a snapshot of the counters.
func (d *DRAM) Stats() DRAMStats { return d.stats }
