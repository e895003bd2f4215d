package outside

import (
	"math/rand"
)

// DrawsRand may use math/rand without any diagnostic.
func DrawsRand() int {
	return rand.Intn(10)
}
