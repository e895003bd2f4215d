package cpu

// Record extends t until it holds at least n instructions, by reading
// through a cursor to the end of the tape until the log holds n.
func (t *Tape) Record(n int64) {
	c := t.log.Cursor()
	for t.log.Len() < n {
		c.Off = c.Used
		c.Refill()
	}
}

// Size returns how many instructions t holds and how many bytes they take.
func (t *Tape) Size() (instrs, bytes int64) { return t.log.Len(), t.log.Bytes() }
