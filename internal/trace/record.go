// Trace record/replay: capture a generator's emitted instruction stream
// once into a compact in-memory buffer and re-serve it, allocation-free,
// to any number of consumers.
//
// The evaluation sweep re-simulates every workload combination under
// several schemes and, since replicated sweeps, several replicates — all
// over the *same* paired-seed instruction streams. A generator's stream is
// a pure function of its construction parameters and is independent of
// simulation timing (the generator takes no feedback from the core or the
// caches), so the expensive synthesis work — RNG draws, phase bookkeeping,
// set and stack-distance selection — can be paid once per stream and
// amortized across every scheme that replays it. The sweeps themselves
// share op tapes (cpu.Tape), which also strip what the cores' front ends
// resolve; recordings keep the whole stream, for perfbench's traced mode
// and the tests.
//
// A Recording wraps a live source stream and memoizes its output into
// fixed-size chunks of a byte-oriented struct-of-arrays encoding:
//
//	meta byte   kind (4 bits) | DepPrev | Taken | PC mode (2 bits)
//	pc          zig-zag varint delta (out-of-line PCs only)
//	addr        zig-zag varint delta (loads/stores only)
//	target      zig-zag varint delta (returns only)
//
// The PC mode names where the instruction's PC comes from:
//
//	seq          the previous instruction's PC + 4
//	resume       the linear PC + 4, where the linear PC is the PC of the
//	             last instruction encoded as seq or resume
//	out-of-line  a varint delta against the previous out-of-line PC
//
// The generators run straight-line code and step out of it only for a
// branch site or a return, after which fetch falls back to the straight
// line: that fall-back is a resume, free like a seq, and branch sites sit
// close together, so an out-of-line PC mostly costs one or two varint
// bytes instead of a delta across the address space. The common case, a
// straight-line instruction that is neither a memory access nor a return,
// costs one byte, and the evaluation's streams average about 1.4 bytes per
// instruction (an isa.Instr value is 48). The records live in a
// chunklog.Log, which extends the recording lazily — a Replay cursor that
// runs past the recorded prefix extends it from the live source, so
// schemes with different IPCs consume different prefixes of one shared
// recording — and lets cursors on several goroutines share it (the sweep
// runs a combination's schemes in parallel).
package trace

import (
	"snug/internal/addr"
	"snug/internal/chunklog"
	"snug/internal/isa"
)

// maxInstrBytes bounds one encoded instruction: the meta byte and three
// worst-case 10-byte varints.
const maxInstrBytes = 31

// Recording memoizes a source stream's instructions in encoded chunks. Use
// NewRecording, then serve consumers with Replay cursors.
type Recording struct {
	log  *chunklog.Log
	name string

	// The encoder's state, under the log's lock: the previous, linear and
	// out-of-line PCs and the previous address and target, mirrored by
	// every decoder.
	encPC     uint64
	encLinPC  uint64
	encOutPC  uint64
	encAddr   uint64
	encTarget uint64
}

// NewRecording wraps src in a lazily-extended recording. src must not be
// advanced by anyone else afterwards: the recording owns it.
func NewRecording(src isa.Stream) *Recording {
	r := &Recording{name: src.Name()}
	r.log = chunklog.New(src, maxInstrBytes, r.encode)
	return r
}

// Recycle returns the recording's chunks to the shared pool and poisons
// the recording: opening or extending a Replay cursor afterwards panics
// instead of decoding another stream's bytes. The caller must guarantee
// that no cursor over the recording is used again.
func (r *Recording) Recycle() { r.log.Recycle() }

// RecycleAll recycles every recording in recs (the cell-sized mirror of
// RecordAll).
func RecycleAll(recs []*Recording) {
	for _, r := range recs {
		r.Recycle()
	}
}

// Name returns the source stream's name.
func (r *Recording) Name() string { return r.name }

// Len returns the number of instructions recorded so far.
func (r *Recording) Len() int64 { return r.log.Len() }

// Bytes returns the encoded size of the recording so far.
func (r *Recording) Bytes() int64 { return r.log.Bytes() }

// Replay returns a new cursor positioned at the start of the stream. Each
// simulated core needs its own cursor; cursors are not goroutine-safe but
// distinct cursors over one Recording are.
func (r *Recording) Replay() *Replay {
	return &Replay{c: r.log.Cursor(), name: r.name}
}

// encode writes one instruction's record.
func (r *Recording) encode(w *chunklog.Writer, in *isa.Instr) {
	buf, pos := w.Buf, w.Pos
	// The flags are close to random per instruction, so they are ORed in
	// without branches.
	meta := byte(in.Kind) | b2u(in.DepPrev)*metaDepPrev | b2u(in.Taken)*metaTaken
	switch pc := in.PC; pc {
	case r.encPC + 4:
		// Straight-line fetch, the overwhelmingly common case.
		buf[pos] = meta | metaPCSeq
		pos++
		r.encLinPC = pc
	case r.encLinPC + 4:
		// Fetch falls back to the straight line after an out-of-line PC.
		buf[pos] = meta | metaPCResume
		pos++
		r.encLinPC = pc
	default:
		buf[pos] = meta | metaPCOut
		pos++
		pos = putUvarint(buf, pos, zig(pc-r.encOutPC))
		r.encOutPC = pc
	}
	r.encPC = in.PC
	switch in.Kind {
	case isa.KindLoad, isa.KindStore:
		a := uint64(in.Addr)
		pos = putUvarint(buf, pos, zig(a-r.encAddr))
		r.encAddr = a
	case isa.KindReturn:
		pos = putUvarint(buf, pos, zig(in.Target-r.encTarget))
		r.encTarget = in.Target
	}
	w.Pos = pos
}

// meta-byte layout: low 4 bits hold the kind, then one bit per flag, and
// the top two bits the PC mode. Only an out-of-line PC is followed by a
// PC varint; the fourth mode value is never written.
const (
	metaKindMask = 0x0f
	metaDepPrev  = 1 << 4
	metaTaken    = 1 << 5

	metaPCMask   = 3 << 6
	metaPCOut    = 0 << 6
	metaPCSeq    = 1 << 6
	metaPCResume = 2 << 6
)

// Replay is a sequential cursor over a Recording, implementing isa.Stream.
// Next is allocation-free; when the cursor catches up with the recorded
// prefix it extends the recording from the live source.
type Replay struct {
	c    chunklog.Cursor
	name string

	prevPC     uint64
	linPC      uint64
	outPC      uint64
	prevAddr   uint64
	prevTarget uint64
}

// Name implements isa.Stream.
func (p *Replay) Name() string { return p.name }

// Next implements isa.Stream, decoding the next recorded instruction.
func (p *Replay) Next(in *isa.Instr) {
	if p.c.Off >= p.c.Used {
		p.c.Refill()
	}
	buf := p.c.Buf
	off := p.c.Off
	meta := buf[off]
	off++
	var pc uint64
	if mode := meta & metaPCMask; mode == metaPCOut {
		var d uint64
		if b := buf[off]; b < 0x80 { // inline uvarint fast path
			d, off = uint64(b), off+1
		} else {
			d, off = uvarint(buf, off)
		}
		pc = p.outPC + zag(d)
		p.outPC = pc
	} else {
		pc = p.linPC
		if mode == metaPCSeq {
			pc = p.prevPC
		}
		pc += 4
		p.linPC = pc
	}
	p.prevPC = pc
	kind := isa.Kind(meta & metaKindMask)
	in.Kind = kind
	in.PC = pc
	in.DepPrev = meta&metaDepPrev != 0
	in.Taken = meta&metaTaken != 0
	in.Addr = 0
	in.Target = 0
	switch kind {
	case isa.KindLoad, isa.KindStore:
		d, o := uvarint(buf, off)
		off = o
		a := p.prevAddr + zag(d)
		p.prevAddr = a
		in.Addr = addr.Addr(a)
	case isa.KindReturn:
		d, o := uvarint(buf, off)
		off = o
		t := p.prevTarget + zag(d)
		p.prevTarget = t
		in.Target = t
	}
	p.c.Off = off
}

// NextBatch implements isa.BatchStream: the cursor and delta-decoder state
// live in locals across the batch and the published-window check runs once
// per window instead of once per instruction, so batched replay decodes at
// memory-scan speed. Behaviour is identical to len(dst) Next calls.
func (p *Replay) NextBatch(dst []isa.Instr) int {
	n := 0
	for n < len(dst) {
		if p.c.Off >= p.c.Used {
			p.c.Refill()
		}
		// Decode straight out of the current chunk's published window.
		buf := p.c.Buf
		off := p.c.Off
		used := p.c.Used
		pc, lin, out := p.prevPC, p.linPC, p.outPC
		a, tgt := p.prevAddr, p.prevTarget
		for off < used && n < len(dst) {
			in := &dst[n]
			meta := buf[off]
			off++
			if mode := meta & metaPCMask; mode == metaPCOut {
				var d uint64
				if b := buf[off]; b < 0x80 { // inline uvarint fast path
					d, off = uint64(b), off+1
				} else {
					d, off = uvarint(buf, off)
				}
				out += zag(d)
				pc = out
			} else {
				// seq and resume differ only right after an out-of-line
				// PC, so pick the base without a branch.
				if mode == metaPCSeq {
					lin = pc
				}
				lin += 4
				pc = lin
			}
			kind := isa.Kind(meta & metaKindMask)
			in.Kind = kind
			in.PC = pc
			in.DepPrev = meta&metaDepPrev != 0
			in.Taken = meta&metaTaken != 0
			in.Addr = 0
			in.Target = 0
			switch kind {
			case isa.KindLoad, isa.KindStore:
				var d uint64
				if b := buf[off]; b < 0x80 {
					d, off = uint64(b), off+1
				} else {
					d, off = uvarint(buf, off)
				}
				a += zag(d)
				in.Addr = addr.Addr(a)
			case isa.KindReturn:
				d, o := uvarint(buf, off)
				off = o
				tgt += zag(d)
				in.Target = tgt
			}
			n++
		}
		p.c.Off = off
		p.prevPC, p.linPC, p.outPC = pc, lin, out
		p.prevAddr, p.prevTarget = a, tgt
	}
	return n
}

// RecordAll wraps each stream in a Recording, preserving order.
func RecordAll(streams []isa.Stream) []*Recording {
	recs := make([]*Recording, len(streams))
	for i, s := range streams {
		recs[i] = NewRecording(s)
	}
	return recs
}

// zig maps a signed delta (carried as a wrapping uint64 difference) to the
// zig-zag encoding, keeping small negative deltas small.
func zig(d uint64) uint64 {
	return (d << 1) ^ uint64(int64(d)>>63)
}

// zag inverts zig.
func zag(u uint64) uint64 {
	return (u >> 1) ^ -(u & 1)
}

// putUvarint writes v in LEB128 at buf[off:], returning the new offset.
func putUvarint(buf []byte, off int, v uint64) int {
	for v >= 0x80 {
		buf[off] = byte(v) | 0x80
		v >>= 7
		off++
	}
	buf[off] = byte(v)
	return off + 1
}

// uvarint reads a LEB128 value at buf[off:], returning it and the new
// offset. Encoded values are bounded by putUvarint, so no overflow checks.
func uvarint(buf []byte, off int) (uint64, int) {
	var v uint64
	var s uint
	for {
		b := buf[off]
		off++
		if b < 0x80 {
			return v | uint64(b)<<s, off
		}
		v |= uint64(b&0x7f) << s
		s += 7
	}
}
