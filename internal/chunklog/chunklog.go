// Package chunklog is the lazily extended, concurrently read log of one
// instruction stream that op tapes (cpu.Tape) and plain recordings
// (trace.Recording) are built on. The log owns the stream, pulls it in
// batches of Batch instructions, and has an encoder of the caller's write
// one record per instruction into fixed 64 KiB chunks drawn from a shared
// pool. Cursors read the records in place, and a cursor that reaches the
// end of the log extends it, so no bound on the consumed length is needed.
//
// Publication: several cursors on several goroutines may read one log
// while one of them extends it. Extension is serialized by a mutex. A
// chunk's bytes are written before its atomic count of published bytes,
// a chunk's count is final before the chunk list naming its successor is
// published, and a record never spans chunks, so published bytes are
// immutable. A cursor that has exhausted its chunk therefore re-reads
// that chunk's count before it moves on, also after it learns of a newer
// chunk list: the chunk may have grown before it was closed.
package chunklog

import (
	"sync"
	"sync/atomic"

	"snug/internal/isa"
)

const (
	// ChunkBytes is the fixed chunk size.
	ChunkBytes = 1 << 16
	// Batch is how many instructions one extension appends: enough to
	// amortize the lock, few enough that a fresh log's first reader is
	// not held up encoding a long prefix.
	Batch = 4096
)

// Writer is where an encoder writes: one record at Buf[Pos:], then Pos
// advanced past it. The log guarantees room for the longest record.
type Writer struct {
	Buf []byte
	Pos int
}

// chunk is one fixed-capacity span of the log. buf has full length from
// construction and is only appended to, so readers may index any prefix
// published through used.
type chunk struct {
	buf  []byte       // pooled backing storage; nil after Recycle
	used atomic.Int64 // published bytes
}

// pool recycles chunk storage across logs: a sweep encodes hundreds of
// megabytes cell by cell, and without reuse every cell would allocate its
// chunks afresh. Reuse is safe because a chunk is referenced only by its
// log and the log's cursors, and Recycle's contract is that both are done.
var pool = sync.Pool{
	New: func() any { return new([ChunkBytes]byte) },
}

func newChunk() *chunk {
	return &chunk{buf: pool.Get().(*[ChunkBytes]byte)[:]}
}

// Log is the lazily extended log of one stream. Build it with New and
// read it with cursors.
type Log struct {
	mu     sync.Mutex
	src    isa.Stream // under mu, as is everything up to chunks
	enc    func(w *Writer, in *isa.Instr)
	max    int // the longest record enc writes
	cur    *chunk
	w      Writer // cur's bytes and write position
	closed int64  // bytes in chunks before cur
	n      int64  // instructions appended

	// in is the extension loop's decode target: as a local, its address
	// would escape into the isa.Stream call and allocate per extension.
	in isa.Instr

	chunks atomic.Pointer[[]*chunk] // grow-only; replaced on append

	// refillHook, nil outside tests, runs in Refill between loading the
	// exhausted chunk's count and loading the chunk list: the window in
	// which another cursor's extension can close that chunk.
	refillHook func()
}

// New returns an empty log over src, which it owns: nobody else may
// advance src afterwards. enc encodes one instruction and never writes
// more than maxRecord bytes; it runs under the log's lock, so the
// encoder's own state needs no other.
func New(src isa.Stream, maxRecord int, enc func(w *Writer, in *isa.Instr)) *Log {
	l := &Log{src: src, enc: enc, max: maxRecord, cur: newChunk()}
	l.w.Buf = l.cur.buf
	chunks := []*chunk{l.cur}
	l.chunks.Store(&chunks)
	return l
}

// Len returns how many instructions the log holds.
func (l *Log) Len() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Bytes returns how many bytes the log's records take.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed + int64(l.w.Pos)
}

// Recycle returns the log's chunks to the shared pool and poisons the log:
// opening, extending or refilling a cursor afterwards panics instead of
// reading another log's bytes from a reused chunk. The caller must
// guarantee that no cursor over the log is used again.
func (l *Log) Recycle() {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.chunks.Load()
	if p == nil {
		return
	}
	for _, c := range *p {
		pool.Put((*[ChunkBytes]byte)(c.buf))
		c.buf = nil
	}
	l.chunks.Store(nil)
	l.cur, l.src, l.w.Buf = nil, nil, nil
}

// extend appends one batch of instructions, unless the log has grown past
// the cursor position (at, off) since the cursor looked.
func (l *Log) extend(at *chunk, off int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		panic("chunklog: Log extended after Recycle")
	}
	if l.cur != at || l.w.Pos != off {
		return
	}
	for i := 0; i < Batch; i++ {
		if l.w.Pos > ChunkBytes-l.max {
			l.next()
		}
		l.src.Next(&l.in)
		l.enc(&l.w, &l.in)
	}
	l.cur.used.Store(int64(l.w.Pos))
	l.n += Batch
}

// next closes the current chunk, its count final, and only then publishes
// the chunk list naming its successor.
func (l *Log) next() {
	l.cur.used.Store(int64(l.w.Pos))
	l.closed += int64(l.w.Pos)
	l.cur = newChunk()
	l.w = Writer{Buf: l.cur.buf}
	old := *l.chunks.Load()
	chunks := make([]*chunk, len(old)+1)
	copy(chunks, old)
	chunks[len(old)] = l.cur
	l.chunks.Store(&chunks)
}

// Cursor reads a log from its start. Buf[Off:Used] is what it may decode
// in place; a decoder that reaches Used calls Refill. Records never span
// chunks, so every record starting below Used is complete. A cursor is
// not goroutine-safe; distinct cursors over one log are.
type Cursor struct {
	Buf  []byte // the current chunk
	Off  int    // read position in Buf
	Used int    // the current chunk's published bytes, as last read

	log    *Log
	chunks []*chunk // snapshot of the log's chunk list
	ci     int      // index of the current chunk in chunks
}

// Cursor returns a new cursor at the start of the log.
func (l *Log) Cursor() Cursor {
	p := l.chunks.Load()
	if p == nil {
		panic("chunklog: cursor opened after Recycle")
	}
	chunks := *p
	return Cursor{Buf: chunks[0].buf, log: l, chunks: chunks}
}

// Refill makes the next record readable: on return Off < Used. It
// re-reads the current chunk's published count before moving on,
// including after it learns of a newer chunk list. Only a cursor at the
// very end of the log extends it.
func (c *Cursor) Refill() {
	for {
		if used := int(c.chunks[c.ci].used.Load()); used > c.Off {
			c.Used = used
			return
		}
		if c.ci+1 < len(c.chunks) {
			c.ci++
			c.Buf, c.Off, c.Used = c.chunks[c.ci].buf, 0, 0
			continue
		}
		if c.log.refillHook != nil {
			c.log.refillHook()
		}
		p := c.log.chunks.Load()
		if p == nil {
			panic("chunklog: cursor read after Recycle")
		}
		if len(*p) > len(c.chunks) {
			c.chunks = *p
			continue
		}
		c.log.extend(c.chunks[c.ci], c.Off)
	}
}
