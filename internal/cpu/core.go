package cpu

import (
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

// IPC returns committed instructions per cycle (0 when no cycles elapsed).
func (s Stats) IPC() float64 {
	if s.Cycles <= 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Core is the out-of-order timing model. It is advanced in quanta by Run;
// cross-core structures are consulted only through the MemFunc.
type Core struct {
	cfg  config.Core
	pred *Predictor
	btb  *BTB
	ras  *RAS

	// Per-kind latencies and queue bounds, widened once at construction so
	// the per-instruction path does no int64 conversions or config loads.
	// simpleLat maps the non-memory, non-control kinds (ALU/FPU/Mult/Div)
	// to their functional-unit latency, turning four switch arms into one
	// predictable "simple instruction" branch plus a table load.
	aluLat, loadLat     int64
	simpleLat           [isa.KindLoad]int64
	lsqSize             int
	issueWidth, ruuSize int
	commitWidth         int

	clock      int64 // dispatch cycle of the most recent instruction
	fetchAvail int64 // earliest dispatch after a fetch redirect

	issuedAt  int64 // cycle issuedCnt refers to
	issuedCnt int

	commitRing []int64 // commit time of instruction j at j % RUUSize
	robIdx     int     // commitRing slot of the current instruction (wraps at RUUSize)
	lastCommit int64
	commitAt   int64
	commitCnt  int

	lsq []int64 // outstanding memory-op completion times; compacted lazily

	prevComplete int64

	// pend is the decode-ahead buffer Run fills from a BatchStream — one
	// batched decode call amortizes the per-instruction stream dispatch.
	pend     []isa.Instr
	pendHead int
	pendLen  int

	// next is the non-batch fallback's decode target. As a field it lives
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
		cfg:         cfg,
		pred:        NewPredictor(cfg.PredictorSize, cfg.HistoryLength),
		btb:         NewBTB(cfg.BTBSets, cfg.BTBWays),
		ras:         NewRAS(cfg.RASEntries),
		commitRing:  make([]int64, cfg.RUUSize),
		lsq:         make([]int64, 0, cfg.LSQSize),
		aluLat:      int64(cfg.ALULat),
		loadLat:     int64(cfg.LoadLat),
		lsqSize:     cfg.LSQSize,
		issueWidth:  cfg.IssueWidth,
		commitWidth: cfg.CommitWidth,
		ruuSize:     cfg.RUUSize,
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
// Streams implementing isa.BatchStream (trace replays) are consumed
// through a persistent decode-ahead buffer: one NextBatch call decodes
// pendBatch instructions in a tight loop, replacing pendBatch interface
// dispatches. Instructions decoded past a quantum boundary stay buffered
// for the next Run call, so the consumed stream prefix — and therefore
// every simulation result — is identical to the one-at-a-time path.
func (c *Core) Run(until int64, stream isa.Stream, mem MemFunc) int64 {
	before := c.stats.Instructions
	if bs, ok := stream.(isa.BatchStream); ok {
		if c.pend == nil {
			// One-time decode-buffer warm-up, never per step.
			c.pend = make([]isa.Instr, pendBatch)
		}
		for c.clock < until {
			if c.pendHead == c.pendLen {
				c.pendLen = bs.NextBatch(c.pend)
				c.pendHead = 0
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
	in := &c.next
	for c.clock < until {
		stream.Next(in)
		c.step(in, mem)
	}
	return c.stats.Instructions - before
}

// step dispatches, executes and commits one instruction in model time.
func (c *Core) step(in *isa.Instr, mem MemFunc) {
	// Dispatch: bounded by fetch availability, window space, issue width,
	// and LSQ occupancy for memory operations.
	e := max(c.clock, c.fetchAvail)
	if robFree := c.commitRing[c.robIdx]; robFree > e {
		c.stats.ROBStall += robFree - e
		e = robFree
	}
	kind := in.Kind
	if kind == isa.KindLoad || kind == isa.KindStore {
		e = c.reserveLSQ(e)
	}
	// Issue-width constraint.
	if e < c.issuedAt {
		e = c.issuedAt
	}
	if e == c.issuedAt && c.issuedCnt >= c.issueWidth {
		e++
	}
	if e > c.issuedAt {
		c.issuedAt = e
		c.issuedCnt = 0
	}
	c.issuedCnt++

	// Execute. The dependence stall is computed branchlessly: DepPrev is
	// effectively random per instruction (the generators model dependence
	// chains probabilistically), so a conditional here mispredicts
	// constantly — masking the stall with the flag costs a handful of
	// always-executed ALU ops instead.
	start := e
	dep := max(c.prevComplete-start, 0)
	var depMask int64
	if in.DepPrev {
		depMask = -1
	}
	dep &= depMask
	c.stats.DepStall += dep
	start += dep
	// The simple kinds (ALU/FPU/Mult/Div) — the bulk of the stream — share
	// one predictable branch into a latency table; only memory and control
	// flow take the switch.
	var complete int64
	if kind < isa.KindLoad {
		complete = start + c.simpleLat[kind]
	} else {
		switch kind {
		case isa.KindLoad:
			complete = mem(start+c.loadLat, in.Addr, false)
			c.pushLSQ(complete)
		case isa.KindStore:
			done := mem(start+c.loadLat, in.Addr, true)
			c.pushLSQ(done)
			complete = start + 1 // posted through the store buffer
		case isa.KindBranch:
			complete = start + c.aluLat
			mispred := c.pred.Update(in.PC, in.Taken)
			if in.Taken && !c.btb.LookupInsert(in.PC) {
				mispred = true
			}
			if mispred {
				c.redirect(complete)
			}
		case isa.KindCall:
			complete = start + c.aluLat
			c.ras.Push(in.PC + 4)
			if !c.btb.LookupInsert(in.PC) {
				c.redirect(complete)
			}
		case isa.KindReturn:
			complete = start + c.aluLat
			if !c.ras.Pop(in.Target) {
				c.redirect(complete)
			}
		default:
			complete = start + c.aluLat
		}
	}
	c.prevComplete = complete

	// Commit: in order, bounded by commit width.
	ct := max(complete, c.lastCommit)
	if ct == c.commitAt && c.commitCnt >= c.commitWidth {
		ct++
	}
	if ct > c.commitAt {
		c.commitAt = ct
		c.commitCnt = 0
	}
	c.commitCnt++
	c.lastCommit = ct
	c.commitRing[c.robIdx] = ct

	c.robIdx++
	if c.robIdx == c.ruuSize {
		c.robIdx = 0
	}
	c.clock = e
	c.stats.Instructions++
	c.kindCount[kind&15]++
}

// redirect applies a fetch redirect (branch misprediction) resolved at
// cycle resolved.
func (c *Core) redirect(resolved int64) {
	c.stats.BranchMispredicts++
	avail := resolved + int64(c.cfg.BranchPenalty)
	if avail > c.fetchAvail {
		c.fetchAvail = avail
	}
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
