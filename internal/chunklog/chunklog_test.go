package chunklog

import (
	"fmt"
	"sync"
	"testing"

	"snug/internal/isa"
)

// countStream numbers its instructions 0, 1, 2, ... in their PCs.
type countStream struct{ pc uint64 }

func (s *countStream) Name() string { return "count" }

func (s *countStream) Next(in *isa.Instr) {
	*in = isa.Instr{PC: s.pc}
	s.pc++
}

// recordBytes is the width of the test records: the low 24 bits of the PC.
// Three does not divide ChunkBytes, so chunks close in mid-batch.
const recordBytes = 3

func encode(w *Writer, in *isa.Instr) {
	w.Buf[w.Pos] = byte(in.PC)
	w.Buf[w.Pos+1] = byte(in.PC >> 8)
	w.Buf[w.Pos+2] = byte(in.PC >> 16)
	w.Pos += recordBytes
}

func newCountLog() *Log { return New(&countStream{}, recordBytes, encode) }

// read decodes the next n records from c and checks that they number
// from, from+1, ...
func read(c *Cursor, from, n int) error {
	for i := from; i < from+n; i++ {
		if c.Off >= c.Used {
			c.Refill()
		}
		b := c.Buf[c.Off:]
		if got := int(b[0]) | int(b[1])<<8 | int(b[2])<<16; got != i&0xffffff {
			return fmt.Errorf("record %d reads %d", i, got)
		}
		c.Off += recordBytes
	}
	return nil
}

// TestRefillRereadsClosedChunk forces the interleaving the publication
// order exists for. Cursor a has read every published record of the first
// chunk. Between a's load of that chunk's count and its load of the chunk
// list, cursor b extends the log: the extension fills the rest of the
// first chunk, closes it and opens a second. a must then re-read the first
// chunk's count and read the records written just before it closed; a
// Refill that steps into the new chunk without that re-read skips them.
func TestRefillRereadsClosedChunk(t *testing.T) {
	l := newCountLog()
	a, b := l.Cursor(), l.Cursor()
	// Five batches fill the first chunk to 61,440 of its 65,536 bytes, so
	// the sixth closes it after 1,365 more records.
	const before = 5 * Batch
	if err := read(&a, 0, before); err != nil {
		t.Fatal(err)
	}
	if err := read(&b, 0, before); err != nil {
		t.Fatal(err)
	}
	if n := l.Len(); n != before || a.Off != a.Used {
		t.Fatalf("after %d records the log holds %d and cursor a is at %d of %d", before, n, a.Off, a.Used)
	}

	ran := false
	l.refillHook = func() {
		l.refillHook = nil
		ran = true
		b.Refill()
	}
	if err := read(&a, before, 2*Batch); err != nil {
		t.Error(err)
	}
	if !ran {
		t.Fatal("Refill never reached the window between its two loads")
	}
	first := (*l.chunks.Load())[0]
	if used := int(first.used.Load()); used <= before*recordBytes || used > ChunkBytes {
		t.Errorf("the interleaved extension left the first chunk at %d bytes, want it grown past %d and closed", used, before*recordBytes)
	}
	if n, bytes := l.Len(), l.Bytes(); n != 7*Batch || bytes != n*recordBytes {
		t.Errorf("the log holds %d records in %d bytes, want %d in %d", n, bytes, 7*Batch, 7*Batch*recordBytes)
	}
}

// TestConcurrentCursors has several goroutines read one fresh log while
// their reads extend it; run under -race it checks that extension and
// reading share nothing unsynchronized.
func TestConcurrentCursors(t *testing.T) {
	const n = 5 * ChunkBytes / recordBytes // several chunks
	l := newCountLog()
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := l.Cursor()
			errs[w] = read(&c, 0, n)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("cursor %d: %v", w, err)
		}
	}
}
