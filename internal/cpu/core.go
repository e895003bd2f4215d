package cpu

import (
	"encoding/binary"
	"math"
	"math/bits"

	"snug/internal/addr"
	"snug/internal/chunklog"
	"snug/internal/config"
	"snug/internal/isa"
)

// MemFunc resolves one data-memory access: it is called with the cycle the
// access is issued and returns the cycle its data is available. The cache
// hierarchy (internal/cmp) provides this function; the core model is
// hierarchy-agnostic.
type MemFunc func(now int64, a addr.Addr, write bool) (doneAt int64)

// Stats aggregates per-core execution statistics.
type Stats struct {
	Instructions int64
	Cycles       int64 // set by the driver at end of run
	KindCount    [isa.NumKinds]int64

	ROBStall int64 // cycles dispatch waited for window space
	LSQStall int64 // cycles dispatch waited for LSQ space
	DepStall int64 // cycles execution waited on the previous result

	BranchMispredicts int64 // direction + BTB + RAS redirects applied
}

// Core is the out-of-order timing model. It is advanced in quanta by Run
// or RunTape; cross-core structures are consulted only through the MemFunc
// or the L2.
//
// NewCore expects a configuration config.Validate accepts: issue and
// commit widths that are powers of two, a positive LSQ size and no
// negative latency.
type Core struct {
	branch branchUnit

	// Latencies, widened once at construction so the per-instruction path
	// does no int64 conversions or config loads. lat maps each kind but a
	// load or store to its execute latency: the functional-unit latency of
	// ALU, FPU, Mult and Div, and the ALU latency of a branch, call or
	// return. So the kind dispatch is one branch, memory or not, and its
	// power-of-two shape makes the lookup free of bounds checks.
	lat                     [16]int64
	loadLat                 int64
	branchPenalty           int64
	issueShift, commitShift uint // log2 of the issue and commit widths

	clock      int64 // dispatch and issue cycle of the most recent instruction
	fetchAvail int64 // earliest dispatch after a fetch redirect
	issueNext  int64 // the next issue slot index (see slot)

	commitRing []int64 // commit cycle of instruction j at j % RUUSize
	robIdx     int     // commitRing slot of the current instruction (wraps at RUUSize)
	commitNext int64   // the next commit slot index

	// lsq holds the outstanding memory-op completion times, compacted
	// lazily. Its capacity is the LSQ size, the bound lsqFull checks.
	lsq []int64

	prevComplete int64

	// pend is the decode-ahead buffer Run fills from a BatchStream, one
	// NextBatch call per pendBatch instructions.
	pend     []isa.Instr
	pendHead int
	pendLen  int

	// next is the Next path's decode target. As a field it lives
	// in the Core's existing allocation; as a Run local its address would
	// escape into the stream.Next interface call and heap-allocate once
	// per Run call (caught by TestSteadyStateAllocs in internal/cmp).
	next isa.Instr

	// kindCount is the per-kind tally with a power-of-two shape so the
	// per-instruction increment needs no bounds check. It is the only
	// instruction count: Stats() folds it into the exported fixed-size
	// array and sums it for Instructions.
	kindCount [16]int64

	stats Stats // the stall and mispredict tallies
}

// NewCore builds a core with the given configuration.
func NewCore(cfg config.Core) *Core {
	c := &Core{
		branch:        newBranchUnit(cfg),
		commitRing:    make([]int64, cfg.RUUSize),
		lsq:           make([]int64, 0, cfg.LSQSize),
		loadLat:       int64(cfg.LoadLat),
		branchPenalty: int64(cfg.BranchPenalty),
		issueShift:    uint(bits.TrailingZeros(uint(cfg.IssueWidth))),
		commitShift:   uint(bits.TrailingZeros(uint(cfg.CommitWidth))),
	}
	alu := int64(cfg.ALULat)
	c.lat[isa.KindALU] = alu
	c.lat[isa.KindFPU] = int64(cfg.FPLat)
	c.lat[isa.KindMult] = int64(cfg.MultLat)
	c.lat[isa.KindDiv] = int64(cfg.DivLat)
	c.lat[isa.KindBranch], c.lat[isa.KindCall], c.lat[isa.KindReturn] = alu, alu, alu
	return c
}

// Stats returns a snapshot of the core's counters with Cycles set to the
// current clock.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.clock
	s.Instructions = c.instructions()
	copy(s.KindCount[:], c.kindCount[:len(s.KindCount)])
	return s
}

// instructions returns how many instructions the core has dispatched, the
// sum of its per-kind tally.
func (c *Core) instructions() (n int64) {
	for _, k := range &c.kindCount {
		n += k
	}
	return n
}

// pendBatch is the decode-ahead depth of the BatchStream run loop: large
// enough to amortize the batched decode across a whole quantum (~100-200
// instructions at the configured widths), small enough to stay cache-hot.
const pendBatch = 256

// Run advances the core until its dispatch clock reaches the until cycle,
// drawing instructions from stream and resolving memory through mem.
//
// Run may be called in successive slices — Run(b1) then Run(b2) steps the
// exact instruction sequence of Run(b2) — which is how internal/cmp drives
// it, one quantum at a time. Run itself never touches cross-core state.
//
// A stream implementing isa.BatchStream is read only through NextBatch,
// pendBatch instructions at a time, into a buffer that keeps what a
// quantum left unread for the next call, so the consumed stream prefix is
// the one the Next path consumes. Every instruction of either kind of
// stream is stepped by step.
func (c *Core) Run(until int64, stream isa.Stream, mem MemFunc) {
	bs, batched := stream.(isa.BatchStream)
	if !batched {
		in := &c.next
		for c.clock < until {
			stream.Next(in)
			c.step(in, mem)
		}
		return
	}
	if c.pend == nil {
		// One-time decode-buffer warm-up, never per step.
		c.pend = make([]isa.Instr, pendBatch)
	}
	for c.clock < until {
		if c.pendHead == c.pendLen {
			c.pendLen, c.pendHead = bs.NextBatch(c.pend), 0
			if c.pendLen == 0 {
				// A finite stream ran dry; the workload streams are
				// endless, but never step stale buffer contents.
				break
			}
		}
		c.step(&c.pend[c.pendHead], mem)
		c.pendHead++
	}
}

// step dispatches, executes and commits one instruction in model time.
func (c *Core) step(in *isa.Instr, mem MemFunc) {
	// Dispatch: bounded by fetch availability, window space, LSQ occupancy
	// for memory operations, and issue width.
	e, robStall := dispatch(c.clock, c.fetchAvail, c.commitRing[c.robIdx])
	c.stats.ROBStall += robStall
	kind := in.Kind
	isMem := memKind(kind)
	if isMem && c.lsqFull() {
		e = c.reserveLSQ(e)
	}
	c.clock, c.issueNext = slot(c.issueNext, e, c.issueShift)

	// Execute. A load or store goes to memory; every other kind takes its
	// latency from one table, and a control op may redirect fetch.
	dep := depDelay(c.prevComplete, c.clock, in.DepPrev)
	c.stats.DepStall += dep
	start := c.clock + dep
	var complete int64
	if isMem {
		done := mem(start+c.loadLat, in.Addr, kind == isa.KindStore)
		c.pushLSQ(done)
		complete = memComplete(kind, start, done)
	} else {
		complete = start + c.lat[kind&15]
		if kind >= isa.KindBranch && c.branch.redirects(in) {
			c.redirect(complete)
		}
	}
	c.prevComplete = complete

	// Commit: in order, bounded by commit width.
	c.commitNext, c.robIdx = retire(c.commitRing, c.robIdx, c.commitNext, complete, c.commitShift)
	c.kindCount[kind&15]++
}

// RunTape is Run over a tape: it steps the instructions t reads with the
// front-end outcomes recorded for them, so it consults no predictor and no
// L1, and it applies step's rules, rule for rule, through the same
// helpers. The L1 hit and miss counts go to the cursor.
//
// It runs two loops. The inner one, runHits, steps every op that needs no
// call with the pipeline state in locals, and stops before the first op
// that does; the outer one makes that op's call through tapeOp, or
// Refill's at the end of the published bytes, and resumes the inner one.
func (c *Core) RunTape(until int64, t *TapeCursor, l2 L2, l1Lat int64) {
	memOps, misses := c.memOps(), t.misses
	for {
		c.runHits(until, &t.c, l1Lat)
		if c.clock >= until {
			break
		}
		if t.c.Off >= t.c.Used {
			t.c.Refill()
			continue
		}
		c.tapeOp(t, l2, l1Lat)
	}
	t.hits += c.memOps() - memOps - (t.misses - misses)
}

// memOps returns how many loads and stores the core has dispatched.
func (c *Core) memOps() int64 {
	return c.kindCount[isa.KindLoad] + c.kindCount[isa.KindStore]
}

// runHits steps the ops of cur's published bytes while each needs no
// call, holding the pipeline state in locals and writing it back once. It
// returns at until, at the end of the published bytes, or before an op
// that needs a call: an L1 miss, a fetch redirect, or a load or store that
// finds the LSQ full. So every load or store it steps hits in the L1 and
// takes l1Lat, every control op it steps keeps fetch going, and it makes
// no call at all.
func (c *Core) runHits(until int64, cur *chunklog.Cursor, l1Lat int64) {
	buf, off := cur.Buf[:cur.Used], cur.Off
	ring, robIdx := c.commitRing, c.robIdx
	clock, prevComplete := c.clock, c.prevComplete
	issueNext, commitNext := c.issueNext, c.commitNext
	hitLat := c.loadLat + l1Lat
	for clock < until && off < len(buf) {
		op := buf[off]
		kind := isa.Kind(op & opKind)
		isMem := memKind(kind)
		if op&opOutcome != 0 || isMem && c.lsqFull() {
			break
		}
		off++

		e, robStall := dispatch(clock, c.fetchAvail, ring[robIdx])
		c.stats.ROBStall += robStall
		clock, issueNext = slot(issueNext, e, c.issueShift)
		dep := depDelay(prevComplete, clock, op&opDepPrev != 0)
		c.stats.DepStall += dep
		start := clock + dep
		var complete int64
		if isMem {
			done := start + hitLat
			c.pushLSQ(done)
			complete = memComplete(kind, start, done)
		} else {
			complete = start + c.lat[kind&15]
		}
		prevComplete = complete
		commitNext, robIdx = retire(ring, robIdx, commitNext, complete, c.commitShift)
		c.kindCount[kind&15]++
	}
	cur.Off = off
	c.clock, c.prevComplete, c.robIdx = clock, prevComplete, robIdx
	c.issueNext, c.commitNext = issueNext, commitNext
}

// tapeOp steps the op at the cursor, one runHits stopped before, with the
// state in c's fields. Only loads, stores and control ops stop it. A load
// or store that finds the LSQ full waits in reserveLSQ. One that missed
// goes to l2 l1Lat after its issue and then writes back its dirty victim,
// the calls L1.Access makes for the same miss. A fetch redirect costs the
// branch penalty.
func (c *Core) tapeOp(t *TapeCursor, l2 L2, l1Lat int64) {
	buf, off := t.c.Buf, t.c.Off
	op := buf[off]
	off++
	e, robStall := dispatch(c.clock, c.fetchAvail, c.commitRing[c.robIdx])
	c.stats.ROBStall += robStall
	kind := isa.Kind(op & opKind)
	isMem := memKind(kind)
	if isMem && c.lsqFull() {
		e = c.reserveLSQ(e)
	}
	c.clock, c.issueNext = slot(c.issueNext, e, c.issueShift)

	dep := depDelay(c.prevComplete, c.clock, op&opDepPrev != 0)
	c.stats.DepStall += dep
	start := c.clock + dep
	var complete int64
	if isMem {
		now := start + c.loadLat
		done := now + l1Lat
		if op&opOutcome != 0 {
			t.misses++
			d, n := binary.Varint(buf[off:])
			off += n
			t.miss += addr.Addr(d)
			done = l2.Access(t.core, done, t.miss, kind == isa.KindStore)
			if op&opVictim != 0 {
				d, n := binary.Varint(buf[off:])
				off += n
				l2.WritebackL1(t.core, now, t.miss+addr.Addr(d))
			}
		}
		c.pushLSQ(done)
		complete = memComplete(kind, start, done)
	} else {
		complete = start + c.lat[kind&15]
		if op&opOutcome != 0 {
			c.redirect(complete)
		}
	}
	t.c.Off = off
	c.prevComplete = complete

	c.commitNext, c.robIdx = retire(c.commitRing, c.robIdx, c.commitNext, complete, c.commitShift)
	c.kindCount[kind&15]++
}

// The timing rules. Each is written once, as a helper small enough to
// inline, and step, runHits and tapeOp call it wherever they apply it.
// reserveLSQ, the LSQ stall, is the one rule too long to inline.

// dispatch is the dispatch bound of the instruction after the one issued
// at clock. Fetch must have resumed after a redirect, at fetchAvail, and
// the window must have a free entry: the one the instruction RUUSize
// earlier frees when it commits, at robFree. It returns the earliest
// dispatch cycle and the cycles spent waiting for the window.
func dispatch(clock, fetchAvail, robFree int64) (e, robStall int64) {
	e = max(clock, fetchAvail)
	return max(e, robFree), max(robFree-e, 0)
}

// slot places an event requested at cycle t on an in-order resource that
// takes 1<<shift events per cycle, the issue or the commit width. The
// resource's state is a slot index, next = cycle<<shift + count: the cycle
// of its last event and how many events that cycle holds, which reads as
// the first slot of the following cycle once the cycle is full. The event
// takes slot s = max(next, t<<shift), in cycle s>>shift, and slot returns
// that cycle and the resource's next index, s+1. The initial index 0 is
// cycle 0 with no event placed.
//
// With the width a power of two the rule is a max, two shifts and an add:
// there is no branch on whether a cycle is full, and no division. The
// shift is masked to 63 so the compiler emits a bare shift instruction.
func slot(next, t int64, shift uint) (cycle, after int64) {
	s := max(next, t<<(shift&63))
	return s >> (shift & 63), s + 1
}

// depDelay is how long an instruction ready at start waits for the
// previous instruction's result, completing at prevComplete: zero unless
// it depends on it. DepPrev is close to a coin flip per instruction (the
// generators model dependence chains probabilistically), so the flag
// masks the wait instead of branching on it.
func depDelay(prevComplete, start int64, depPrev bool) int64 {
	return max(prevComplete-start, 0) & -b2i(depPrev)
}

// memComplete is the completion of a load or store that started executing
// at start and whose access has its data at done. A load completes at
// done. A store is posted through the store buffer: it completes the
// cycle after it starts, and only its LSQ entry waits for done.
func memComplete(kind isa.Kind, start, done int64) int64 {
	if kind == isa.KindStore {
		return start + 1
	}
	return done
}

// retire commits an instruction that completes at complete: in order,
// through the commit slot index next at 1<<shift per cycle. It records the
// commit cycle in the window ring at robIdx, the cycle that entry frees,
// and returns the next commit index and the next ring index.
func retire(ring []int64, robIdx int, next, complete int64, shift uint) (int64, int) {
	at, next := slot(next, complete, shift)
	ring[robIdx] = at
	robIdx++
	if robIdx == len(ring) {
		robIdx = 0
	}
	return next, robIdx
}

// redirect charges a fetch redirect resolved at cycle resolved: fetch
// resumes the branch penalty later.
func (c *Core) redirect(resolved int64) {
	c.stats.BranchMispredicts++
	c.fetchAvail = max(c.fetchAvail, resolved+c.branchPenalty)
}

// b2i converts a bool to 0 or 1; the compiler lowers it without a branch.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// memKind reports whether kind is a load or a store, as one unsigned
// compare: a kind below KindLoad wraps around to a large value.
func memKind(kind isa.Kind) bool { return kind-isa.KindLoad <= isa.KindStore-isa.KindLoad }

// lsqFull reports whether the LSQ is at its capacity, the LSQ size, so
// that a memory op must first free an entry through reserveLSQ.
func (c *Core) lsqFull() bool { return len(c.lsq) == cap(c.lsq) }

// pushLSQ records an outstanding completion time in the LSQ, which lsqFull
// has found below capacity. It reslices within the capacity rather than
// appending, so it never allocates, makes no call and stores only the
// length.
func (c *Core) pushLSQ(t int64) {
	n := len(c.lsq)
	c.lsq = c.lsq[:n+1]
	c.lsq[n] = t
}

// reserveLSQ frees completed entries of the full LSQ as of cycle e and, if
// the queue is still full, stalls until the earliest outstanding
// completion. It returns the (possibly delayed) dispatch cycle. A memory op
// calls it only when lsqFull.
//
// The queue is an unsorted completion-time buffer compacted lazily:
// completed entries are dropped only when the buffer reaches capacity.
// That is exact — the un-compacted length only overcounts the live
// occupancy, so a buffer below capacity proves the true queue is below
// capacity too, and compacting at capacity reveals the true state before
// any stall is charged; the stall target (minimum outstanding completion)
// falls out of the same linear pass as a running minimum. The previous
// code paid two O(n) compactions plus an O(n) min scan on every memory op;
// this path is a length check in the common case and one predictable
// linear pass per capacity-fill, amortizing to ~1 slot move per push when
// most entries are short-lived.
func (c *Core) reserveLSQ(e int64) int64 {
	min := c.compactLSQ(e)
	if !c.lsqFull() {
		return e
	}
	// Full of live entries, which all complete after e, so min > e.
	c.stats.LSQStall += min - e
	e = min
	c.compactLSQ(e)
	return e
}

// compactLSQ drops entries whose memory operation completed by cycle e,
// returning the minimum surviving completion time (MaxInt64 when none).
func (c *Core) compactLSQ(e int64) int64 {
	q := c.lsq
	w := 0
	min := int64(math.MaxInt64)
	for _, t := range q {
		if t > e {
			q[w] = t
			w++
			if t < min {
				min = t
			}
		}
	}
	c.lsq = q[:w]
	return min
}
