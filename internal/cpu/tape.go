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
// never stored. The ops live in a chunklog.Log, which extends the tape
// lazily and lets concurrent cursors share it; Core.RunTape reads the
// bytes in place.
package cpu

import (
	"encoding/binary"

	"snug/internal/addr"
	"snug/internal/chunklog"
	"snug/internal/config"
	"snug/internal/isa"
)

const (
	// The op byte's fields.
	opKind    = 0x0f
	opDepPrev = 1 << 4
	opOutcome = 1 << 5
	opVictim  = 1 << 6

	// maxOpBytes bounds one op: the op byte and two varints.
	maxOpBytes = 1 + 2*binary.MaxVarintLen64
)

// Tape is one core's op tape: its instruction stream filtered through the
// core's front end. Build it with NewTape and read it with cursors.
type Tape struct {
	log  *chunklog.Log
	name string
	core int

	// The encoder's state, under the log's lock.
	branch branchUnit
	l1     *L1
	miss   addr.Addr // the last miss address, the delta encoder's state
}

// NewTape wraps src, core's instruction stream, in a lazily extended tape
// whose front end — branch predictor, BTB, RAS and L1 data cache — is
// built from cfg as a live core's is. The tape owns src.
func NewTape(cfg config.System, core int, src isa.Stream) *Tape {
	t := &Tape{
		name:   src.Name(),
		core:   core,
		branch: newBranchUnit(cfg.Core),
		l1:     NewL1(cfg, core, nil),
	}
	t.log = chunklog.New(src, maxOpBytes, t.record)
	return t
}

// Name returns the source stream's name.
func (t *Tape) Name() string { return t.name }

// Recycle returns the tape's chunks to the shared pool and poisons the
// tape: opening or extending a cursor afterwards panics. The caller must
// guarantee that no cursor over the tape is used again.
func (t *Tape) Recycle() { t.log.Recycle() }

// record runs one instruction through the front end and writes its op.
func (t *Tape) record(w *chunklog.Writer, in *isa.Instr) {
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
	buf, pos := w.Buf, w.Pos
	buf[pos] = op
	pos++
	if miss {
		pos += binary.PutVarint(buf[pos:], int64(pa-t.miss))
		t.miss = pa
		if dirty {
			pos += binary.PutVarint(buf[pos:], int64(victim-pa))
		}
	}
	w.Pos = pos
}

// TapeCursor reads a tape from its start for Core.RunTape and counts the
// L1 hits and misses read. A cursor is not goroutine-safe; distinct
// cursors over one tape are.
type TapeCursor struct {
	c    chunklog.Cursor
	core int

	miss         addr.Addr // the last miss address, the delta decoder's state
	hits, misses int64
}

// Cursor returns a new cursor at the start of the tape.
func (t *Tape) Cursor() *TapeCursor {
	return &TapeCursor{c: t.log.Cursor(), core: t.core}
}

// L1 returns the L1 hits and misses of the loads and stores read so far.
func (c *TapeCursor) L1() (hits, misses int64) { return c.hits, c.misses }
