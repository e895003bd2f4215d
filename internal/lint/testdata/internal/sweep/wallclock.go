// Package sweep is a fixture posing as module package snug/internal/sweep,
// where the real sweep engine's progress and backoff clocks live.
package sweep

import (
	"time"
)

// Bad reads the wall clock where a result could see it.
func Bad() int64 {
	return time.Now().UnixNano() // want "wall-clock read time.Now"
}

// BadSince derives a duration from the wall clock.
func BadSince(start time.Time) time.Duration {
	return time.Since(start) // want "wall-clock read time.Since"
}

// BadSleep waits on the wall clock.
func BadSleep() {
	time.Sleep(time.Millisecond) // want "wall-clock read time.Sleep"
}

// BadTimer builds a wall-clock timer.
func BadTimer() *time.Timer {
	return time.NewTimer(time.Second) // want "wall-clock read time.NewTimer"
}

// Progress is the sanctioned pattern: annotated ETA-only uses.
func Progress(report func(time.Duration)) {
	start := time.Now()       //snug:allow wallclock progress/ETA only, never feeds results
	report(time.Since(start)) //snug:allow wallclock progress/ETA only, never feeds results
}

// BackoffSleep is the sanctioned retry-backoff pattern: an annotated
// wall-clock timer whose sleep delays scheduling only — a retried job
// reruns with the same identity-derived seed, so the timer can never feed
// results. The unannotated equivalent is BadTimer above.
func BackoffSleep(done <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d) //snug:allow wallclock retry backoff sleep; delays scheduling only, never feeds results
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}

// Types may mention time freely; only clock reads are flagged.
type Snapshot struct {
	Elapsed time.Duration
	ETA     time.Duration
}

// Derived arithmetic on durations is fine.
func Derived(d time.Duration) time.Duration {
	return 2*d + time.Millisecond
}

// Later compares two instants through a time.Time method of a listed name;
// it reads no clock.
func Later(a, b time.Time) bool {
	return a.After(b)
}
