package outside

import (
	"time"
)

// ReadsClock reads the clock without any diagnostic.
func ReadsClock() time.Time {
	return time.Now()
}
