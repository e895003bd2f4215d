package cpu

import (
	"encoding/binary"
	"math"

	"snug/internal/addr"
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
type Core struct {
	branch branchUnit

	// Per-kind latencies and queue bounds, widened once at construction so
	// the per-instruction path does no int64 conversions or config loads.
	// simpleLat maps the non-memory, non-control kinds (ALU/FPU/Mult/Div)
	// to their functional-unit latency, turning four switch arms into one
	// predictable "simple instruction" branch plus a table load.
	aluLat, loadLat         int64
	simpleLat               [isa.KindLoad]int64
	branchPenalty           int64
	issueWidth, commitWidth int64
	lsqSize                 int

	clock      int64 // dispatch and issue cycle of the most recent instruction
	fetchAvail int64 // earliest dispatch after a fetch redirect
	issuedCnt  int64 // instructions issued at clock

	commitRing []int64 // commit time of instruction j at j % RUUSize
	robIdx     int     // commitRing slot of the current instruction (wraps at RUUSize)
	commitAt   int64   // latest commit cycle, the previous instruction's
	commitCnt  int64   // instructions committed at commitAt

	lsq []int64 // outstanding memory-op completion times; compacted lazily

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
	// per-instruction increment needs no bounds check; Stats() folds it
	// into the exported fixed-size array.
	kindCount [16]int64

	stats Stats
}

// NewCore builds a core with the given configuration.
func NewCore(cfg config.Core) *Core {
	c := &Core{
		branch:        newBranchUnit(cfg),
		commitRing:    make([]int64, cfg.RUUSize),
		lsq:           make([]int64, 0, cfg.LSQSize),
		aluLat:        int64(cfg.ALULat),
		loadLat:       int64(cfg.LoadLat),
		branchPenalty: int64(cfg.BranchPenalty),
		issueWidth:    int64(cfg.IssueWidth),
		commitWidth:   int64(cfg.CommitWidth),
		lsqSize:       cfg.LSQSize,
	}
	c.simpleLat[isa.KindALU] = int64(cfg.ALULat)
	c.simpleLat[isa.KindFPU] = int64(cfg.FPLat)
	c.simpleLat[isa.KindMult] = int64(cfg.MultLat)
	c.simpleLat[isa.KindDiv] = int64(cfg.DivLat)
	return c
}

// Stats returns a snapshot of the core's counters with Cycles set to the
// current clock.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.clock
	copy(s.KindCount[:], c.kindCount[:len(s.KindCount)])
	return s
}

// pendBatch is the decode-ahead depth of the BatchStream run loop: large
// enough to amortize the batched decode across a whole quantum (~100-200
// instructions at the configured widths), small enough to stay cache-hot.
const pendBatch = 256

// Run advances the core until its dispatch clock reaches the until cycle,
// drawing instructions from stream and resolving memory through mem. It
// returns the number of instructions dispatched during this quantum.
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
func (c *Core) Run(until int64, stream isa.Stream, mem MemFunc) int64 {
	before := c.stats.Instructions
	bs, batched := stream.(isa.BatchStream)
	if !batched {
		in := &c.next
		for c.clock < until {
			stream.Next(in)
			c.step(in, mem)
		}
		return c.stats.Instructions - before
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
	return c.stats.Instructions - before
}

// RunTape is Run over a tape: it steps the instructions t reads with the
// front-end outcomes recorded for them, so it consults no predictor and no
// L1. A fetch redirect costs the branch penalty. A load or store that hit
// in the L1 takes l1Lat; one that missed goes to l2 l1Lat after its issue
// and then writes back its dirty victim, the calls L1.Access makes for the
// same miss. It applies step's rules, rule for rule, with the pipeline
// state held in locals for the whole call and written back once, reading
// the tape's op bytes in place; the L1 counts go to the cursor.
func (c *Core) RunTape(until int64, t *TapeCursor, l2 L2, l1Lat int64) int64 {
	buf, off, used := t.c.Buf, t.c.Off, t.c.Used
	core, miss := t.core, t.miss
	ring := c.commitRing
	clock, fetchAvail, issuedCnt := c.clock, c.fetchAvail, c.issuedCnt
	commitAt, commitCnt := c.commitAt, c.commitCnt
	robIdx, prevComplete := c.robIdx, c.prevComplete
	var robStall, depStall, mispredicts, count, hits, misses int64
	for clock < until {
		if off >= used {
			t.c.Off = off
			t.c.Refill()
			buf, off, used = t.c.Buf, t.c.Off, t.c.Used
		}
		op := buf[off]
		off++

		e := max(clock, fetchAvail)
		robFree := ring[robIdx]
		robStall += max(robFree-e, 0)
		e = max(e, robFree)
		kind := isa.Kind(op & opKind)
		if (kind == isa.KindLoad || kind == isa.KindStore) && len(c.lsq) >= c.lsqSize {
			e = c.reserveLSQ(e)
		}
		clock, issuedCnt = slot(e, clock, issuedCnt, c.issueWidth)

		dep := depDelay(prevComplete, clock, op&opDepPrev != 0)
		depStall += dep
		start := clock + dep
		var complete int64
		if kind < isa.KindLoad {
			complete = start + c.simpleLat[kind]
		} else if kind <= isa.KindStore {
			now := start + c.loadLat
			done := now + l1Lat
			if op&opOutcome == 0 {
				hits++
			} else {
				misses++
				d, n := binary.Varint(buf[off:])
				off += n
				miss += addr.Addr(d)
				done = l2.Access(core, done, miss, kind == isa.KindStore)
				if op&opVictim != 0 {
					d, n := binary.Varint(buf[off:])
					off += n
					l2.WritebackL1(core, now, miss+addr.Addr(d))
				}
			}
			c.pushLSQ(done)
			complete = done
			if kind == isa.KindStore {
				complete = start + 1 // posted through the store buffer
			}
		} else {
			complete = start + c.aluLat
			if op&opOutcome != 0 {
				mispredicts++
				fetchAvail = max(fetchAvail, complete+c.branchPenalty)
			}
		}
		prevComplete = complete

		commitAt, commitCnt = slot(complete, commitAt, commitCnt, c.commitWidth)
		ring[robIdx] = commitAt
		robIdx++
		if robIdx == len(ring) {
			robIdx = 0
		}
		count++
		c.kindCount[kind&15]++
	}
	t.c.Off, t.miss = off, miss
	t.hits += hits
	t.misses += misses
	c.clock, c.fetchAvail, c.issuedCnt = clock, fetchAvail, issuedCnt
	c.commitAt, c.commitCnt = commitAt, commitCnt
	c.robIdx, c.prevComplete = robIdx, prevComplete
	c.stats.ROBStall += robStall
	c.stats.DepStall += depStall
	c.stats.BranchMispredicts += mispredicts
	c.stats.Instructions += count
	return count
}

// step dispatches, executes and commits one instruction in model time.
func (c *Core) step(in *isa.Instr, mem MemFunc) {
	// Dispatch: bounded by fetch availability, window space, LSQ occupancy
	// for memory operations, and issue width.
	e := max(c.clock, c.fetchAvail)
	robFree := c.commitRing[c.robIdx]
	c.stats.ROBStall += max(robFree-e, 0)
	e = max(e, robFree)
	kind := in.Kind
	if (kind == isa.KindLoad || kind == isa.KindStore) && len(c.lsq) >= c.lsqSize {
		e = c.reserveLSQ(e)
	}
	c.clock, c.issuedCnt = slot(e, c.clock, c.issuedCnt, c.issueWidth)

	// Execute. The simple kinds (ALU/FPU/Mult/Div) — the bulk of the
	// stream — share one predictable branch into a latency table; only
	// memory and control flow take the switch.
	dep := depDelay(c.prevComplete, c.clock, in.DepPrev)
	c.stats.DepStall += dep
	start := c.clock + dep
	var complete int64
	if kind < isa.KindLoad {
		complete = start + c.simpleLat[kind]
	} else {
		switch kind {
		case isa.KindLoad:
			complete = mem(start+c.loadLat, in.Addr, false)
			c.pushLSQ(complete)
		case isa.KindStore:
			c.pushLSQ(mem(start+c.loadLat, in.Addr, true))
			complete = start + 1 // posted through the store buffer
		default:
			complete = start + c.aluLat
			if c.branch.redirects(in) {
				c.stats.BranchMispredicts++
				c.fetchAvail = max(c.fetchAvail, complete+c.branchPenalty)
			}
		}
	}
	c.prevComplete = complete

	// Commit: in order, bounded by commit width.
	c.commitAt, c.commitCnt = slot(complete, c.commitAt, c.commitCnt, c.commitWidth)
	c.commitRing[c.robIdx] = c.commitAt
	c.robIdx++
	if c.robIdx == len(c.commitRing) {
		c.robIdx = 0
	}
	c.stats.Instructions++
	c.kindCount[kind&15]++
}

// slot places an event requested at cycle t on an in-order resource that
// takes width events per cycle, where at is the cycle of the previous
// event and cnt the number of events placed there. The event lands on
// max(t, at), or one cycle later when that cycle is full. slot returns
// the event's cycle and the new count there, which are the resource's
// next at and cnt. Issue and commit width are both this rule.
//
// Whether the cycle is full and whether the event moves past at are
// data-dependent, so slot is written to compile to conditional moves and
// set instructions rather than branches.
func slot(t, at, cnt, width int64) (int64, int64) {
	t = max(t, at)
	t += b2i(t == at) & b2i(cnt >= width)
	if t != at {
		cnt = 0
	}
	return t, cnt + 1
}

// depDelay is how long an instruction ready at start waits for the
// previous instruction's result, completing at prevComplete: zero unless
// it depends on it. DepPrev is close to a coin flip per instruction (the
// generators model dependence chains probabilistically), so the flag
// masks the wait instead of branching on it.
func depDelay(prevComplete, start int64, depPrev bool) int64 {
	return max(prevComplete-start, 0) & -b2i(depPrev)
}

// b2i converts a bool to 0 or 1; the compiler lowers it without a branch.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// reserveLSQ frees completed LSQ entries as of cycle e and, if the queue is
// still full, stalls until the earliest outstanding completion. It returns
// the (possibly delayed) dispatch cycle.
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
	if len(c.lsq) < c.lsqSize {
		return e
	}
	min := c.compactLSQ(e)
	if len(c.lsq) < c.lsqSize {
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

// pushLSQ records an outstanding completion time. The append does not
// allocate in steady state: capacity stabilizes at lsqSize, and compactLSQ
// keeps len below it.
func (c *Core) pushLSQ(t int64) {
	c.lsq = append(c.lsq, t)
}
