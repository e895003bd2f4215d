// The directive audit over wallclock, the pairing behind the real sweep
// engine's retry-backoff annotations: an allow on a real clock read is
// live, and one on a line with no clock read is stale and must be flagged
// before it rots into false confidence. This comment is not the package
// doc, which wallclock.go holds.

package sweep

import "time"

// LiveBackoff is the sweep engine's backoff-sleep shape: the annotation
// suppresses a real wallclock finding, so it is live.
func LiveBackoff(done <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d) //snug:allow wallclock retry backoff sleep; delays scheduling only, never feeds results
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}

// StaleBackoff annotates a line where no clock is read — the timer was
// refactored away but the annotation survived.
func StaleBackoff(d time.Duration) time.Duration {
	return 2 * d //snug:allow wallclock leftover from a removed timer // want "stale //snug:allow wallclock"
}
