package cmp

// NewTapeSystem lets the external tests assemble a system over tapes, the
// kind StreamCache runs.
var NewTapeSystem = newTapeSystem
