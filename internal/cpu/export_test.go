package cpu

// Record extends t until it holds at least n instructions.
func (t *Tape) Record(n int64) {
	for {
		t.mu.Lock()
		at, off, have := t.cur, t.curPos, t.instrs
		t.mu.Unlock()
		if have >= n {
			return
		}
		t.extend(at, off)
	}
}

// Size returns how many instructions t holds and how many bytes they take.
func (t *Tape) Size() (instrs, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range *t.chunks.Load() {
		bytes += c.used.Load()
	}
	return t.instrs, bytes
}
