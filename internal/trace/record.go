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
// instruction (an isa.Instr value is 48). Recording is lazy:
// a Replay cursor that runs past the recorded prefix extends the recording
// from the live source, so no a-priori bound on the consumed stream length
// is needed — schemes with different IPCs naturally consume different
// prefixes of one shared recording.
//
// Concurrency: Replay cursors from different goroutines may share one
// Recording (the sweep runs a combination's schemes in parallel).
// Extension is serialized by a mutex; published state is advertised with
// atomics (bytes are written before the per-chunk byte count, which is
// written before the global instruction count, so a reader that observes
// the instruction count observes the bytes behind it). Chunk buffers are
// allocated at full, fixed length and an instruction never spans chunks,
// so published bytes are immutable.
package trace

import (
	"sync"
	"sync/atomic"

	"snug/internal/addr"
	"snug/internal/isa"
)

const (
	// chunkBytes is the fixed chunk-buffer size.
	chunkBytes = 1 << 16
	// maxInstrBytes bounds one encoded instruction (meta + three worst-case
	// 10-byte varints); a chunk with less remaining space is closed.
	maxInstrBytes = 31
	// extendBatch is how many instructions one extension appends. Large
	// enough to amortize the lock, small enough that the first consumer of
	// a fresh recording is not held up synthesizing a huge prefix.
	extendBatch = 4096
)

// chunk is one fixed-capacity span of the encoded stream. buf has full
// length from construction and is only appended to in place, so readers may
// index any prefix published through used.
type chunk struct {
	arr  *[chunkBytes]byte // pooled backing storage; nil after Recycle
	buf  []byte            // arr[:]
	used atomic.Int64      // published encoded bytes
}

// chunkPool recycles chunk backing arrays across recordings. A full
// evaluation sweep records hundreds of megabytes of streams cell by cell,
// and without reuse every cell's recording re-allocates its chunks from
// scratch — the dominant allocation cost of the whole evaluation. Pooling
// is safe because a recording's chunks are referenced only by the
// recording and its Replay cursors, and Recycle's contract is that both
// are done.
var chunkPool = sync.Pool{
	New: func() any { return new([chunkBytes]byte) },
}

// newChunk takes a backing array from the pool.
func newChunk() *chunk {
	arr := chunkPool.Get().(*[chunkBytes]byte)
	return &chunk{arr: arr, buf: arr[:]}
}

// Recording memoizes a source stream's instructions in encoded chunks. Use
// NewRecording, then serve consumers with Replay cursors.
type Recording struct {
	mu   sync.Mutex
	src  isa.Stream // consumed under mu
	name string

	// Encoder state, under mu: the previous, linear and out-of-line PCs
	// and the previous address and target, mirrored by every decoder.
	cur        *chunk
	curPos     int
	encPC      uint64
	encLinPC   uint64
	encOutPC   uint64
	encAddr    uint64
	encTarget  uint64
	totalBytes int64

	// in is the extension loop's decode target. It lives on the recording
	// rather than extend's stack because passing its address through the
	// isa.Stream interface call makes it escape — one heap allocation per
	// extend call, tens of thousands per evaluation sweep.
	in isa.Instr

	chunks atomic.Pointer[[]*chunk] // grow-only; replaced wholesale on append
	filled atomic.Int64             // published instruction count
}

// NewRecording wraps src in a lazily-extended recording. src must not be
// advanced by anyone else afterwards: the recording owns it.
func NewRecording(src isa.Stream) *Recording {
	r := &Recording{src: src, name: src.Name()}
	r.cur = newChunk()
	chunks := []*chunk{r.cur}
	r.chunks.Store(&chunks)
	return r
}

// Recycle returns the recording's chunk storage to the shared pool and
// poisons the recording. The caller must guarantee that no Replay cursor
// over this recording will be used again — recycled buffers are
// immediately rewritten by other recordings, so a late cursor would decode
// another stream's bytes. Any attempt to extend or replay after Recycle
// panics instead of corrupting results.
func (r *Recording) Recycle() {
	r.mu.Lock()
	defer r.mu.Unlock()
	chunks := r.chunks.Load()
	if chunks == nil {
		return // already recycled
	}
	for _, c := range *chunks {
		arr := c.arr
		c.arr = nil
		c.buf = nil
		if arr != nil {
			chunkPool.Put(arr)
		}
	}
	r.chunks.Store(nil)
	r.cur = nil
	r.src = nil
}

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
func (r *Recording) Len() int64 { return r.filled.Load() }

// Bytes returns the encoded size of the recording so far.
func (r *Recording) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totalBytes
}

// Replay returns a new cursor positioned at the start of the stream. Each
// simulated core needs its own cursor; cursors are not goroutine-safe but
// distinct cursors over one Recording are.
func (r *Recording) Replay() *Replay {
	p := r.chunks.Load()
	if p == nil {
		panic("trace: Replay cursor opened after Recycle")
	}
	chunks := *p
	return &Replay{rec: r, chunks: chunks, buf: chunks[0].buf}
}

// extend appends one batch of instructions from the source stream.
func (r *Recording) extend() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur == nil {
		panic("trace: Recording extended after Recycle")
	}
	for i := 0; i < extendBatch; i++ {
		r.src.Next(&r.in)
		r.encode(&r.in)
	}
	r.cur.used.Store(int64(r.curPos))
	r.filled.Add(extendBatch)
}

// encode appends one instruction to the current chunk, closing it and
// opening a new one when it cannot hold a worst-case instruction.
func (r *Recording) encode(in *isa.Instr) {
	if r.curPos > chunkBytes-maxInstrBytes {
		r.cur.used.Store(int64(r.curPos))
		r.cur = newChunk()
		r.curPos = 0
		old := *r.chunks.Load()
		chunks := make([]*chunk, len(old)+1)
		copy(chunks, old)
		chunks[len(old)] = r.cur
		r.chunks.Store(&chunks)
	}
	buf := r.cur.buf
	pos := r.curPos
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
	r.totalBytes += int64(pos - r.curPos)
	r.curPos = pos
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
	rec    *Recording
	chunks []*chunk // snapshot of the recording's chunk list
	ci     int      // index of the current chunk in chunks
	buf    []byte   // chunks[ci].buf
	off    int      // decode position in buf
	used   int      // cached published byte count of the current chunk

	pos   int64 // instructions decoded
	limit int64 // cached published instruction count

	prevPC     uint64
	linPC      uint64
	outPC      uint64
	prevAddr   uint64
	prevTarget uint64
}

// Name implements isa.Stream.
func (p *Replay) Name() string { return p.rec.name }

// Next implements isa.Stream, decoding the next recorded instruction.
func (p *Replay) Next(in *isa.Instr) {
	if p.pos >= p.limit {
		p.moreInstructions()
	}
	if p.off >= p.used {
		p.moreBytes()
	}
	buf := p.buf
	off := p.off
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
	p.off = off
	p.pos++
}

// NextBatch implements isa.BatchStream: the cursor and delta-decoder state
// live in locals across the batch and the published-window checks run once
// per window instead of once per instruction, so batched replay decodes at
// memory-scan speed. Behaviour is identical to len(dst) Next calls.
func (p *Replay) NextBatch(dst []isa.Instr) int {
	n := 0
	for n < len(dst) {
		if p.pos >= p.limit {
			p.moreInstructions()
		}
		if p.off >= p.used {
			p.moreBytes()
		}
		// Decode straight out of the current chunk's published window.
		// Published byte counts land on instruction boundaries, so every
		// instruction starting below used is complete.
		buf := p.buf
		off := p.off
		used := p.used
		pc, lin, out := p.prevPC, p.linPC, p.outPC
		a, tgt := p.prevAddr, p.prevTarget
		decoded := int64(0)
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
			decoded++
		}
		p.off = off
		p.prevPC, p.linPC, p.outPC = pc, lin, out
		p.prevAddr, p.prevTarget = a, tgt
		p.pos += decoded
	}
	return n
}

// moreInstructions refreshes the published-instruction limit, extending the
// recording from its source when the cursor has truly caught up.
func (p *Replay) moreInstructions() {
	for {
		if l := p.rec.filled.Load(); l > p.pos {
			p.limit = l
			return
		}
		p.rec.extend()
	}
}

// moreBytes refreshes the current chunk's published byte count or advances
// to the next chunk. It is only called with published instructions ahead of
// the cursor (pos < limit), so the bytes exist: either the current chunk
// has grown, or it was closed and the stream continues in the next one.
func (p *Replay) moreBytes() {
	if used := int(p.chunks[p.ci].used.Load()); used > p.off {
		p.used = used
		return
	}
	p.ci++
	if p.ci >= len(p.chunks) {
		p.chunks = *p.rec.chunks.Load()
	}
	c := p.chunks[p.ci]
	p.buf = c.buf
	p.off = 0
	p.used = int(c.used.Load())
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
