// Tapes: a core's front-end outcomes, recorded once per sweep cell.
//
// Every run of a cell feeds each core the same instruction stream, and a
// core's L1 data cache, direction predictor, BTB and RAS see only that
// core's instructions, in program order, so their outcomes are the same in
// every run whatever the scheme (DESIGN.md, "Op tapes"). A Tape runs the
// stream once through the same branchUnit and L1 rules a live core
// applies and keeps only what the timing model reads. Every instruction is
// one op byte:
//
//	bits 0-3  kind
//	bit 4     DepPrev
//	bit 5     outcome: a fetch redirect for a branch, call or return, an
//	          L1 miss for a load or store
//	bit 6     the miss evicted a dirty block
//
// An L1 miss is followed by a zig-zag varint of its rebased address, a
// delta against the previous miss, and a dirty victim by a second one, its
// address less the miss's. PCs, branch targets and hit addresses are
// never stored. Core.RunTape reads the bytes in place.
//
// A tape is extended lazily and shared by concurrent cursors the way
// trace.Recording is: extension is serialized by a mutex, bytes are
// written before the count of a chunk's published bytes, a chunk is closed
// (its count final) before the chunk list naming its successor is
// published, and an op never spans chunks, so published bytes are
// immutable.
package cpu

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"snug/internal/addr"
	"snug/internal/config"
	"snug/internal/isa"
)

const (
	// The op byte's fields.
	opKind    = 0x0f
	opDepPrev = 1 << 4
	opOutcome = 1 << 5
	opVictim  = 1 << 6

	// tapeChunkBytes is the fixed chunk-buffer size.
	tapeChunkBytes = 1 << 16
	// maxOpBytes bounds one op: the op byte and two varints. A chunk with
	// less room left is closed.
	maxOpBytes = 1 + 2*binary.MaxVarintLen64
	// tapeBatch is how many instructions one extension appends.
	tapeBatch = 4096
)

// tapeChunk is one fixed-capacity span of a tape. buf has full length from
// construction and is only appended to, so readers may index any prefix
// published through used.
type tapeChunk struct {
	arr  *[tapeChunkBytes]byte // pooled backing storage; nil after Recycle
	buf  []byte                // arr[:]
	used atomic.Int64          // published bytes
}

// tapeChunkPool recycles chunk storage across cells, as the trace chunk
// pool does for recordings.
var tapeChunkPool = sync.Pool{
	New: func() any { return new([tapeChunkBytes]byte) },
}

func newTapeChunk() *tapeChunk {
	arr := tapeChunkPool.Get().(*[tapeChunkBytes]byte)
	return &tapeChunk{arr: arr, buf: arr[:]}
}

// Tape is one core's op tape: its instruction stream filtered through the
// core's front end. Build it with NewTape and read it with cursors.
type Tape struct {
	mu     sync.Mutex
	src    isa.Stream // under mu, as is everything up to chunks
	name   string
	core   int
	branch branchUnit
	l1     *L1

	// in is the extension loop's decode target: as a local, its address
	// would escape into the isa.Stream call and allocate per extension.
	in isa.Instr

	cur    *tapeChunk
	curPos int
	miss   addr.Addr // the last miss address, the delta encoder's state
	instrs int64

	chunks atomic.Pointer[[]*tapeChunk] // grow-only; replaced on append
}

// NewTape wraps src, core's instruction stream, in a lazily extended tape
// whose front end — branch predictor, BTB, RAS and L1 data cache — is
// built from cfg as a live core's is. The tape owns src.
func NewTape(cfg config.System, core int, src isa.Stream) *Tape {
	t := &Tape{
		src:    src,
		name:   src.Name(),
		core:   core,
		branch: newBranchUnit(cfg.Core),
		l1:     NewL1(cfg, core, nil),
		cur:    newTapeChunk(),
	}
	chunks := []*tapeChunk{t.cur}
	t.chunks.Store(&chunks)
	return t
}

// Name returns the source stream's name.
func (t *Tape) Name() string { return t.name }

// Recycle returns the tape's chunks to the shared pool and poisons the
// tape: opening or extending a cursor afterwards panics. The caller must
// guarantee that no cursor over the tape is used again.
func (t *Tape) Recycle() {
	t.mu.Lock()
	defer t.mu.Unlock()
	chunks := t.chunks.Load()
	if chunks == nil {
		return
	}
	for _, c := range *chunks {
		tapeChunkPool.Put(c.arr)
		c.arr, c.buf = nil, nil
	}
	t.chunks.Store(nil)
	t.cur, t.src = nil, nil
}

// extend appends one batch of instructions, unless the tape has grown past
// the cursor position (at, off) since the cursor looked.
func (t *Tape) extend(at *tapeChunk, off int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == nil {
		panic("cpu: Tape extended after Recycle")
	}
	if t.cur != at || t.curPos != off {
		return
	}
	for i := 0; i < tapeBatch; i++ {
		t.src.Next(&t.in)
		t.record(&t.in)
	}
	t.cur.used.Store(int64(t.curPos))
	t.instrs += tapeBatch
}

// record runs one instruction through the front end and appends its op,
// closing the current chunk first when it cannot hold a longest op.
func (t *Tape) record(in *isa.Instr) {
	if t.curPos > tapeChunkBytes-maxOpBytes {
		t.cur.used.Store(int64(t.curPos))
		t.cur, t.curPos = newTapeChunk(), 0
		old := *t.chunks.Load()
		chunks := make([]*tapeChunk, len(old)+1)
		copy(chunks, old)
		chunks[len(old)] = t.cur
		t.chunks.Store(&chunks)
	}
	op := byte(in.Kind) | byte(b2i(in.DepPrev))*opDepPrev
	var pa, victim addr.Addr
	var miss, dirty bool
	switch in.Kind {
	case isa.KindLoad, isa.KindStore:
		write := in.Kind == isa.KindStore
		var hit bool
		if pa, hit = t.l1.lookup(in.Addr, write); !hit {
			miss = true
			victim, dirty = t.l1.fill(pa, write)
			op |= opOutcome | byte(b2i(dirty))*opVictim
		}
	case isa.KindBranch, isa.KindCall, isa.KindReturn:
		if t.branch.redirects(in) {
			op |= opOutcome
		}
	}
	buf, pos := t.cur.buf, t.curPos
	buf[pos] = op
	pos++
	if miss {
		pos += binary.PutVarint(buf[pos:], int64(pa-t.miss))
		t.miss = pa
		if dirty {
			pos += binary.PutVarint(buf[pos:], int64(victim-pa))
		}
	}
	t.curPos = pos
}

// TapeCursor reads a tape from its start for Core.RunTape and counts the
// L1 hits and misses read. A cursor is not goroutine-safe; distinct
// cursors over one tape are.
type TapeCursor struct {
	tape   *Tape
	chunks []*tapeChunk // snapshot of the tape's chunk list
	ci     int          // index of the current chunk in chunks
	buf    []byte       // chunks[ci].buf
	off    int          // read position in buf
	used   int          // cached published byte count of the current chunk

	miss         addr.Addr // the last miss address, the delta decoder's state
	hits, misses int64
}

// Cursor returns a new cursor at the start of the tape.
func (t *Tape) Cursor() *TapeCursor {
	p := t.chunks.Load()
	if p == nil {
		panic("cpu: Tape cursor opened after Recycle")
	}
	chunks := *p
	return &TapeCursor{tape: t, chunks: chunks, buf: chunks[0].buf}
}

// L1 returns the L1 hits and misses of the loads and stores read so far.
func (c *TapeCursor) L1() (hits, misses int64) { return c.hits, c.misses }

// refill makes the next op readable: on return off < used. It re-reads the
// current chunk's published count before moving on, including after it
// learns of a newer chunk list, since the chunk may have grown before it
// was closed. Only a cursor at the very end of the tape extends it.
func (c *TapeCursor) refill() {
	for {
		if used := int(c.chunks[c.ci].used.Load()); used > c.off {
			c.used = used
			return
		}
		if c.ci+1 < len(c.chunks) {
			c.ci++
			c.buf, c.off, c.used = c.chunks[c.ci].buf, 0, 0
			continue
		}
		p := c.tape.chunks.Load()
		if p == nil {
			panic("cpu: Tape cursor read after Recycle")
		}
		if len(*p) > len(c.chunks) {
			c.chunks = *p
			continue
		}
		c.tape.extend(c.chunks[c.ci], c.off)
	}
}
