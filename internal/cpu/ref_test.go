package cpu

import (
	"math/rand"
	"testing"

	"snug/internal/addr"
	"snug/internal/config"
	"snug/internal/isa"
)

// refCore transcribes the core model's per-instruction step in an earlier
// form: every value in a field, the issue and commit width bounds as
// branches on a cycle and a count rather than slot indexes, a lastCommit
// field beside commitAt, an issuedAt field beside clock, and an
// instruction count of its own. Its LSQ is refLSQ, the eager reference
// TestLSQMatchesReference holds the lazy queue to. Core.Run must reproduce
// it exactly on both stream paths.
type refCore struct {
	cfg  config.Core
	pred *Predictor
	btb  *BTB
	ras  *RAS

	clock, fetchAvail int64
	issuedAt          int64
	issuedCnt         int
	commitRing        []int64
	robIdx            int
	lastCommit        int64
	commitAt          int64
	commitCnt         int
	lsq               refLSQ
	prevComplete      int64
	stats             Stats
	next              isa.Instr
}

func newRefCore(cfg config.Core) *refCore {
	return &refCore{
		cfg:        cfg,
		pred:       NewPredictor(cfg.PredictorSize, cfg.HistoryLength),
		btb:        NewBTB(cfg.BTBSets, cfg.BTBWays),
		ras:        NewRAS(cfg.RASEntries),
		commitRing: make([]int64, cfg.RUUSize),
	}
}

// run mirrors Core.Run: step until the dispatch clock reaches until,
// returning the instructions dispatched.
func (c *refCore) run(until int64, s isa.Stream, mem MemFunc) int64 {
	before := c.stats.Instructions
	for c.clock < until {
		s.Next(&c.next)
		c.step(&c.next, mem)
	}
	return c.stats.Instructions - before
}

// Stats mirrors Core.Stats.
func (c *refCore) Stats() Stats {
	s := c.stats
	s.Cycles = c.clock
	s.LSQStall = c.lsq.stall
	return s
}

func (c *refCore) step(in *isa.Instr, mem MemFunc) {
	e := c.clock
	if c.fetchAvail > e {
		e = c.fetchAvail
	}
	if robFree := c.commitRing[c.robIdx]; robFree > e {
		c.stats.ROBStall += robFree - e
		e = robFree
	}
	if in.Kind == isa.KindLoad || in.Kind == isa.KindStore {
		e = c.lsq.reserve(e, c.cfg.LSQSize)
	}
	// Issue-width constraint.
	if e < c.issuedAt {
		e = c.issuedAt
	}
	if e == c.issuedAt && c.issuedCnt >= c.cfg.IssueWidth {
		e++
	}
	if e > c.issuedAt {
		c.issuedAt = e
		c.issuedCnt = 0
	}
	c.issuedCnt++

	start := e
	if in.DepPrev && c.prevComplete > start {
		c.stats.DepStall += c.prevComplete - start
		start = c.prevComplete
	}
	var complete int64
	switch in.Kind {
	case isa.KindALU:
		complete = start + int64(c.cfg.ALULat)
	case isa.KindFPU:
		complete = start + int64(c.cfg.FPLat)
	case isa.KindMult:
		complete = start + int64(c.cfg.MultLat)
	case isa.KindDiv:
		complete = start + int64(c.cfg.DivLat)
	case isa.KindLoad:
		complete = mem(start+int64(c.cfg.LoadLat), in.Addr, false)
		c.lsq.q = append(c.lsq.q, complete)
	case isa.KindStore:
		done := mem(start+int64(c.cfg.LoadLat), in.Addr, true)
		c.lsq.q = append(c.lsq.q, done)
		complete = start + 1
	case isa.KindBranch:
		complete = start + int64(c.cfg.ALULat)
		mispred := c.pred.Update(in.PC, in.Taken)
		if in.Taken && !c.btb.LookupInsert(in.PC) {
			mispred = true
		}
		if mispred {
			c.redirect(complete)
		}
	case isa.KindCall:
		complete = start + int64(c.cfg.ALULat)
		c.ras.Push(in.PC + 4)
		if !c.btb.LookupInsert(in.PC) {
			c.redirect(complete)
		}
	case isa.KindReturn:
		complete = start + int64(c.cfg.ALULat)
		if !c.ras.Pop(in.Target) {
			c.redirect(complete)
		}
	}
	c.prevComplete = complete

	// Commit: in order, bounded by commit width.
	ct := max(complete, c.lastCommit)
	if ct == c.commitAt && c.commitCnt >= c.cfg.CommitWidth {
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
	if c.robIdx == len(c.commitRing) {
		c.robIdx = 0
	}
	c.clock = e
	c.stats.Instructions++
	c.stats.KindCount[in.Kind]++
}

func (c *refCore) redirect(resolved int64) {
	c.stats.BranchMispredicts++
	if avail := resolved + int64(c.cfg.BranchPenalty); avail > c.fetchAvail {
		c.fetchAvail = avail
	}
}

// randStream is an endless random instruction stream: every kind with
// random weights, random DepPrev and Taken, PCs from a small pool so the
// predictor, BTB and RAS both hit and miss, and return targets that
// usually match a recent call. Two streams with one seed are identical.
type randStream struct {
	rng    *rand.Rand
	weight [isa.NumKinds]int
	total  int
	calls  []uint64
}

func newRandStream(seed int64) *randStream {
	s := &randStream{rng: rand.New(rand.NewSource(seed))}
	for k := range s.weight {
		s.weight[k] = s.rng.Intn(10)
		s.total += s.weight[k]
	}
	if s.total == 0 {
		s.weight[isa.KindLoad], s.total = 1, 1
	}
	return s
}

func (s *randStream) Name() string { return "rand" }

func (s *randStream) Next(in *isa.Instr) {
	r := s.rng.Intn(s.total)
	k := 0
	for r >= s.weight[k] {
		r -= s.weight[k]
		k++
	}
	*in = isa.Instr{
		Kind:    isa.Kind(k),
		PC:      uint64(s.rng.Intn(64)) * 4,
		DepPrev: s.rng.Intn(2) == 0,
		Taken:   s.rng.Intn(3) != 0,
	}
	switch in.Kind {
	case isa.KindLoad, isa.KindStore:
		in.Addr = addr.Addr(s.rng.Uint64())
	case isa.KindCall:
		s.calls = append(s.calls, in.PC+4)
	case isa.KindReturn:
		in.Target = uint64(s.rng.Intn(64)) * 4
		if n := len(s.calls); n > 0 && s.rng.Intn(4) != 0 {
			in.Target = s.calls[n-1]
			s.calls = s.calls[:n-1]
		}
	}
}

// batchStream serves a randStream through isa.BatchStream, so Core.Run
// takes its batched path. Run must read a BatchStream only through
// NextBatch, so its Next fails the test.
type batchStream struct {
	*randStream
	t *testing.T
}

func (s batchStream) Next(*isa.Instr) {
	s.t.Helper()
	s.t.Fatal("Core.Run called Next on a BatchStream")
}

func (s batchStream) NextBatch(dst []isa.Instr) int {
	for i := range dst {
		s.randStream.Next(&dst[i])
	}
	return len(dst)
}

// nextOnly hides any NextBatch method, so Core.Run takes its Next path.
type nextOnly struct{ isa.Stream }

// memCall is one MemFunc invocation.
type memCall struct {
	now   int64
	a     addr.Addr
	write bool
}

// recordingMem returns a MemFunc that logs every call into *log and
// answers the i-th call with now plus lat[i % len(lat)], so two cores
// making the same calls get the same answers.
func recordingMem(log *[]memCall, lat []int64) MemFunc {
	return func(now int64, a addr.Addr, write bool) int64 {
		*log = append(*log, memCall{now, a, write})
		return now + lat[(len(*log)-1)%len(lat)]
	}
}

// randCoreConfig draws a core shape small enough that width, window and
// LSQ bounds all bind, or the default Table 4 core, taking each choice
// from draw(n), a number in [0, n) such as rng.Intn(n). The widths are
// powers of two, the only ones config.Validate accepts.
func randCoreConfig(draw func(n int) int) config.Core {
	cfg := config.Default().Core
	if draw(3) == 0 {
		return cfg
	}
	cfg.IssueWidth = 1 << draw(4)
	cfg.CommitWidth = 1 << draw(4)
	cfg.RUUSize = 1 + draw(64)
	cfg.LSQSize = 1 + draw(16)
	cfg.ALULat = 1 + draw(3)
	cfg.FPLat = 1 + draw(6)
	cfg.MultLat = 1 + draw(8)
	cfg.DivLat = 1 + draw(30)
	cfg.LoadLat = draw(4)
	cfg.BranchPenalty = draw(10)
	return cfg
}

// TestRunMatchesReferenceStep drives Core.Run and refCore over random
// streams, shapes and memory latencies, in random quantum splits, through
// both of Run's stream paths. After every quantum both must have
// dispatched the same instructions, report identical Stats, and have
// made the identical sequence of memory calls. On the batched path the
// stream fails the test if Run ever calls its Next.
func TestRunMatchesReferenceStep(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		for _, batched := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			cfg := randCoreConfig(rng.Intn)
			lat := make([]int64, 1+rng.Intn(64))
			for i := range lat {
				lat[i] = 1 + rng.Int63n(400)
			}
			var stream isa.Stream = nextOnly{newRandStream(seed)}
			if batched {
				stream = batchStream{newRandStream(seed), t}
			}
			ref := newRefCore(cfg)
			refSrc := newRandStream(seed)
			c := NewCore(cfg)
			var got, want []memCall
			gotMem, wantMem := recordingMem(&got, lat), recordingMem(&want, lat)

			until, checked := int64(0), 0
			for q := 0; q < 300; q++ {
				until += int64(rng.Intn(600)) - 50 // some quanta end before the clock
				n := c.Run(until, stream, gotMem)
				wantN := ref.run(until, refSrc, wantMem)
				if n != wantN || c.Stats() != ref.Stats() {
					t.Fatalf("seed %d batched=%v quantum %d: Run = %d, stats %+v; reference %d, %+v",
						seed, batched, q, n, c.Stats(), wantN, ref.Stats())
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d batched=%v quantum %d: %d memory calls, reference %d", seed, batched, q, len(got), len(want))
				}
				for i := checked; i < len(got); i++ {
					if got[i] != want[i] {
						t.Fatalf("seed %d batched=%v quantum %d: memory call %d %+v, reference %+v", seed, batched, q, i, got[i], want[i])
					}
				}
				checked = len(got)
			}
			if c.Stats().Instructions == 0 {
				t.Fatalf("seed %d batched=%v: no instructions ran", seed, batched)
			}
		}
	}
}
