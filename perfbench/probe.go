package main

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"snug/internal/addr"
	"snug/internal/cache"
	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/cpu"
	"snug/internal/isa"
	"snug/internal/schemes"
	"snug/internal/trace"
)

// recordBatch is how many instructions a timing source draws per refill.
// It equals the batch a trace.Recording extends by, so each extension is
// exactly one refill; cellCache.release checks that they stayed aligned.
const recordBatch = 4096

// isoBatch is the refill size of the isolated replays' input buffers.
const isoBatch = 1 << 16

// chunked serves a stream from a buffer it refills from src, timing each
// refill: srcNs is the source's own cost (synthesis for a generator, decode
// for a replay) without a clock read per instruction. It implements only
// Next, so a core reading it takes the per-instruction path.
type chunked struct {
	src     isa.Stream
	buf     []isa.Instr
	head, n int
	limit   int64 // most instructions to draw from src; 0 = no limit
	made    int64 // instructions drawn from src
	srcNs   int64
	overrun bool // a read past limit was served a zero instruction
}

func newChunked(src isa.Stream, size int, limit int64) *chunked {
	return &chunked{src: src, buf: make([]isa.Instr, size), limit: limit}
}

func (c *chunked) Name() string { return c.src.Name() }

// fill refills the buffer and returns how many instructions it holds.
func (c *chunked) fill() int {
	want := len(c.buf)
	if c.limit > 0 && c.made+int64(want) > c.limit {
		want = int(c.limit - c.made)
	}
	c.head, c.n = 0, want
	if want == 0 {
		c.overrun = true
		return 0
	}
	start := time.Now()
	if bs, ok := c.src.(isa.BatchStream); ok {
		bs.NextBatch(c.buf[:want])
	} else {
		for i := range c.buf[:want] {
			c.src.Next(&c.buf[i])
		}
	}
	c.srcNs += int64(time.Since(start))
	c.made += int64(want)
	return want
}

func (c *chunked) Next(in *isa.Instr) {
	if c.head == c.n && c.fill() == 0 {
		*in = isa.Instr{}
		return
	}
	*in = c.buf[c.head]
	c.head++
}

// recSource is a recording's live source. Besides timing synthesis, it
// times each extension: the span from the refill that starts it to the
// last instruction it draws covers synthesis plus encoding.
type recSource struct {
	*chunked
	extStart time.Time
	extNs    int64
}

func (r *recSource) Next(in *isa.Instr) {
	if r.head == r.n {
		r.extStart = time.Now()
		r.fill()
	}
	*in = r.buf[r.head]
	r.head++
	if r.head == r.n {
		r.extNs += int64(time.Since(r.extStart))
	}
}

// timedBatch times every batch decode of a replay cursor, keeping the
// isa.BatchStream path. Its span includes any lazy extension of the
// recording the cursor triggers.
type timedBatch struct {
	src *trace.Replay
	ns  int64
	n   int64
}

func (t *timedBatch) Name() string { return t.src.Name() }

func (t *timedBatch) Next(in *isa.Instr) {
	start := time.Now()
	t.src.Next(in)
	t.ns += int64(time.Since(start))
	t.n++
}

func (t *timedBatch) NextBatch(dst []isa.Instr) int {
	start := time.Now()
	n := t.src.NextBatch(dst)
	t.ns += int64(time.Since(start))
	t.n += int64(n)
	return n
}

// ctrlCall is one logged controller call (kind 'A'ccess, 'W'ritebackL1 or
// 'T'ick) with the value Access returned.
type ctrlCall struct {
	kind  byte
	core  int
	now   int64
	a     addr.Addr
	write bool
	done  int64
}

// ctrlProbe collects what the TIMED controller measured for one run.
type ctrlProbe struct {
	inner    string
	accessNs int64 // Access + WritebackL1
	tickNs   int64
	calls    int64 // Access + WritebackL1
	ticks    int64
	done     [][]int64   // per core, Access completion cycles in call order
	log      *[]ctrlCall // every call, when non-nil
}

// probes maps a TIMED spec's argument to its probe. A spec string is the
// only thing cmp.RunStreams passes to a controller factory, so the probe
// travels through this table.
var (
	probeMu  sync.Mutex
	probeSeq int
	probes   = map[int]*ctrlProbe{}
)

// withProbe registers p, returns the TIMED spec that reaches it and a func
// that unregisters it.
func withProbe(p *ctrlProbe) (string, func()) {
	probeMu.Lock()
	defer probeMu.Unlock()
	probeSeq++
	id := probeSeq
	probes[id] = p
	return fmt.Sprintf("TIMED(%d)", id), func() {
		probeMu.Lock()
		defer probeMu.Unlock()
		delete(probes, id)
	}
}

func init() {
	schemes.Register(schemes.Family{
		Name: "TIMED",
		Canon: func(args []string) ([]string, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("TIMED takes one probe id, got %d arguments", len(args))
			}
			if _, err := strconv.Atoi(args[0]); err != nil {
				return nil, fmt.Errorf("TIMED probe id %q: %w", args[0], err)
			}
			return args, nil
		},
		New: func(spec schemes.Spec, cfg config.System) (schemes.Controller, error) {
			id, _ := strconv.Atoi(spec.Args[0]) // Canon has checked it parses
			probeMu.Lock()
			p := probes[id]
			probeMu.Unlock()
			if p == nil {
				return nil, fmt.Errorf("TIMED: no probe %d", id)
			}
			inner, err := schemes.Build(p.inner, cfg)
			if err != nil {
				return nil, err
			}
			p.done = make([][]int64, cfg.Cores)
			return &timedController{inner: inner, p: p}, nil
		},
	})
}

// timedController passes every call through to the real controller,
// timing and counting Access, WritebackL1 and Tick. Name and Report
// delegate, so results are unchanged.
type timedController struct {
	inner schemes.Controller
	p     *ctrlProbe
}

func (c *timedController) Name() string           { return c.inner.Name() }
func (c *timedController) Report() schemes.Report { return c.inner.Report() }

func (c *timedController) Access(core int, now int64, a addr.Addr, write bool) int64 {
	start := time.Now()
	done := c.inner.Access(core, now, a, write)
	c.p.accessNs += int64(time.Since(start))
	c.p.calls++
	c.p.done[core] = append(c.p.done[core], done)
	if c.p.log != nil {
		*c.p.log = append(*c.p.log, ctrlCall{'A', core, now, a, write, done})
	}
	return done
}

func (c *timedController) WritebackL1(core int, now int64, a addr.Addr) {
	start := time.Now()
	c.inner.WritebackL1(core, now, a)
	c.p.accessNs += int64(time.Since(start))
	c.p.calls++
	if c.p.log != nil {
		*c.p.log = append(*c.p.log, ctrlCall{kind: 'W', core: core, now: now, a: a})
	}
}

func (c *timedController) Tick(now int64) {
	start := time.Now()
	c.inner.Tick(now)
	c.p.tickNs += int64(time.Since(start))
	c.p.ticks++
	if c.p.log != nil {
		*c.p.log = append(*c.p.log, ctrlCall{kind: 'T', now: now})
	}
}

// simTrace is what one traced simulation measured.
type simTrace struct {
	res      cmp.RunResult
	family   string
	quantum  int64
	probe    *ctrlProbe
	runNs    int64   // cmp.RunStreams
	streamNs int64   // inside the cores' stream calls
	decodeNs int64   // inside replay batch decodes (part of streamNs)
	decoded  int64   // instructions the replay cursors decoded
	synthNs  int64   // live synthesis outside any decode (part of streamNs)
	synthed  int64   // instructions synthesized live
	consumed []int64 // per core, instructions drawn from its stream
	jobNs    int64   // fig9: the whole job, isolated replays excluded
	iso      isoTimes
	isoErr   error
}

// tracedSim runs spec over already-wrapped timing streams with a TIMED
// controller in front of the real one.
func tracedSim(cfg config.System, spec string, cycles int64, streams []isa.Stream) (simTrace, error) {
	st := simTrace{family: family(spec), quantum: cfg.Quantum, probe: &ctrlProbe{inner: spec}, consumed: make([]int64, len(streams))}
	timedSpec, done := withProbe(st.probe)
	defer done()
	start := time.Now()
	res, err := cmp.RunStreams(cfg, timedSpec, streams, cycles)
	st.runNs = int64(time.Since(start))
	if err != nil {
		return st, err
	}
	st.res = res
	for i, s := range streams {
		switch s := s.(type) {
		case *timedBatch:
			st.decodeNs += s.ns
			st.decoded += s.n
			st.streamNs += s.ns
			st.consumed[i] = s.n
		case *chunked:
			st.synthNs += s.srcNs
			st.synthed += s.made
			st.streamNs += s.srcNs
			st.consumed[i] = s.made
		}
	}
	return st, nil
}

// isoTimes is what the isolated replays of one simulation measured.
type isoTimes struct {
	l1Ns, cpuNs int64
}

// memOp is one load or store as the L1 sees it.
type memOp struct {
	a     addr.Addr
	write bool
}

// isolate replays each core of a traced simulation alone, on the input the
// traced run captured: open(core) must return that core's stream from its
// start. The L1 pass feeds the core's load/store sequence into a fresh L1
// and must reproduce its hit and miss counts; the core pass steps a fresh
// cpu.Core in the same quanta with a MemFunc that returns what the
// hierarchy returned (L1 latency on a hit, the recorded controller
// completion cycle on a miss) and must reproduce its statistics. Only the
// L1 operations and the core's Run calls are timed.
func isolate(cfg config.System, cycles int64, st simTrace, open func(core int) (isa.Stream, error)) (isoTimes, error) {
	var it isoTimes
	geom := addr.MustGeometry(cfg.Mem.L1D.BlockBytes, cfg.Mem.L1D.Sets())
	l1Lat := int64(cfg.Mem.L1Lat)
	for core, cr := range st.res.Cores {
		// L1 pass.
		l1 := cache.MustNew(geom, cfg.Mem.L1D.Ways)
		base := addr.ForCore(core, 0)
		s, err := open(core)
		if err != nil {
			return it, err
		}
		src := newChunked(s, isoBatch, cr.Instructions)
		var hits []bool
		var ops []memOp
		for left := cr.Instructions; left > 0; {
			n := src.fill()
			ops = ops[:0]
			for _, in := range src.buf[:n] {
				if in.Kind == isa.KindLoad || in.Kind == isa.KindStore {
					ops = append(ops, memOp{in.Addr | base, in.Kind == isa.KindStore})
				}
			}
			start := time.Now()
			for _, op := range ops {
				hit := l1.Lookup(op.a, op.write)
				if !hit {
					l1.Insert(op.a, cache.Block{Dirty: op.write, Owner: int8(core)})
				}
				hits = append(hits, hit)
			}
			it.l1Ns += int64(time.Since(start))
			left -= int64(n)
		}
		if s := l1.Stats(); s.Hits != cr.L1Hits || s.Misses != cr.L1Misses {
			return it, fmt.Errorf("core %d: isolated L1 replay gave %d hits/%d misses, traced run %d/%d",
				core, s.Hits, s.Misses, cr.L1Hits, cr.L1Misses)
		}

		// Core pass.
		done := st.probe.done[core]
		k, m := 0, 0
		mem := func(now int64, _ addr.Addr, _ bool) int64 {
			hit := hits[k]
			k++
			if hit {
				return now + l1Lat
			}
			m++
			return done[m-1]
		}
		if s, err = open(core); err != nil {
			return it, err
		}
		// A replay is read as the traced run read it, batch by batch; a
		// generator through the same buffered Next path. Either way the
		// stream's own time is subtracted.
		var stream isa.Stream
		var streamNs func() int64
		overrun := func() bool { return false }
		if r, ok := s.(*trace.Replay); ok {
			tb := &timedBatch{src: r}
			stream, streamNs = tb, func() int64 { return tb.ns }
		} else {
			ch := newChunked(s, recordBatch, st.consumed[core])
			stream, streamNs = ch, func() int64 { return ch.srcNs }
			overrun = func() bool { return ch.overrun }
		}
		c := cpu.NewCore(cfg.Core)
		start := time.Now()
		for clock := int64(0); clock < cycles; {
			b := min(clock+cfg.Quantum, cycles)
			c.Run(b, stream, mem)
			clock = b
		}
		it.cpuNs += int64(time.Since(start)) - streamNs()
		if got := c.Stats(); got != cr.CPUStats || m != len(done) || overrun() {
			return it, fmt.Errorf("core %d: isolated core replay diverged (stats %+v, traced %+v; %d of %d completions used)",
				core, got, cr.CPUStats, m, len(done))
		}
	}
	return it, nil
}

// famPrefix names each controller family's metrics after the package that
// implements it.
var famPrefix = map[string]string{
	"L2P": "schemes.l2p", "L2S": "schemes.l2s", "CC": "schemes.cc", "DSR": "schemes.dsr", "SNUG": "core.snug",
}

var (
	families     = []string{"L2P", "L2S", "CC", "DSR", "SNUG"}
	coopFamilies = []string{"CC", "DSR", "SNUG"}
)

// famTotals accumulates one controller family's calls and counters.
type famTotals struct {
	accessNs, tickNs, calls            int64
	l2, remote, offchip                int64
	spills, noTaker, retrievals, rhits int64
	stranded                           int64
}

// totals accumulates a traced sample's layer costs and counters.
type totals struct {
	mu  sync.Mutex
	par int

	workerNs int64 // traced wall time × parallelism, isolated replays excluded

	synthNs, synthInstr       int64
	recordNs, recordedBytes   int64
	decodeSpanNs, decodeInstr int64
	extendNs                  int64 // synthesis + recording inside decode spans
	streamNs, runNs           int64
	cpuNs, l1Ns               int64

	instr, coreCycles, stalls, quanta int64
	l1Acc, l1Miss                     int64
	fam                               map[string]*famTotals
	busTx, busBusy, busWait           int64
	dramR, dramW, wbDirect, wbFull    int64

	sweep                 bool
	jobs, failed, retried int64
	jobNs, putNs          int64
	isoErr                error
}

func newTotals(par int) *totals {
	t := &totals{par: par, fam: map[string]*famTotals{}}
	for _, f := range families {
		t.fam[f] = &famTotals{}
	}
	return t
}

// addRecording books one cell recording's synthesis and encoding.
func (t *totals) addRecording(src *recSource, rec *trace.Recording) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.synthNs += src.srcNs
	t.synthInstr += src.made
	t.recordNs += src.extNs - src.srcNs
	t.extendNs += src.extNs
	t.recordedBytes += rec.Bytes()
	if rec.Len() != src.made && t.isoErr == nil {
		t.isoErr = fmt.Errorf("recording holds %d instructions but its source made %d: extensions no longer match %d-instruction refills",
			rec.Len(), src.made, recordBatch)
	}
}

// addSim books one traced simulation.
func (t *totals) addSim(st simTrace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st.isoErr != nil && t.isoErr == nil {
		t.isoErr = st.isoErr
	}
	t.runNs += st.runNs
	t.streamNs += st.streamNs
	t.decodeSpanNs += st.decodeNs
	t.decodeInstr += st.decoded
	t.synthNs += st.synthNs
	t.synthInstr += st.synthed
	t.cpuNs += st.iso.cpuNs
	t.l1Ns += st.iso.l1Ns
	t.jobNs += st.jobNs

	r := st.res
	cores := int64(len(r.Cores))
	q := st.quantum
	t.quanta += cores * ((r.Cycles + q - 1) / q)
	t.coreCycles += cores * r.Cycles
	for _, c := range r.Cores {
		t.instr += c.Instructions
		t.stalls += c.CPUStats.ROBStall + c.CPUStats.LSQStall + c.CPUStats.DepStall
		t.l1Acc += c.L1Hits + c.L1Misses
		t.l1Miss += c.L1Misses
	}
	f := t.fam[st.family]
	f.accessNs += st.probe.accessNs
	f.tickNs += st.probe.tickNs
	f.calls += st.probe.calls
	rep := r.Report
	for _, pc := range rep.PerCore {
		f.l2 += pc.Total()
		f.remote += pc.BySource[schemes.SrcRemoteL2]
	}
	f.offchip += rep.OffChip()
	f.spills += rep.Spills
	f.noTaker += rep.SpillNoTaker
	f.retrievals += rep.Retrievals
	f.rhits += rep.RetrievalHits
	f.stranded += rep.StrandedDropped
	for _, n := range rep.Bus.Transactions {
		t.busTx += n
	}
	t.busBusy += rep.Bus.BusyCycles
	t.busWait += rep.Bus.WaitCycles
	t.dramR += rep.DRAM.Reads
	t.dramW += rep.DRAM.Writes
	for _, wb := range rep.WB {
		t.wbDirect += wb.DirectReads
		t.wbFull += wb.FullStalls
	}
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sec(ns int64) float64 { return float64(ns) / 1e9 }

// Limits that check enforces on the ledger. Traced runs put cmp.self_s at
// 4-8% of RunStreams time and the residual well under 1% of worker time.
const (
	maxCmpShare      = 0.25 // cmp.self_s over RunStreams time
	maxResidualShare = 0.05 // |ledger.residual_s| over worker time
)

// ledgerNs is the ledger's split of the worker time, in nanoseconds.
// cmpSelf is what remains of RunStreams time after every other layer inside
// it, so layers equals RunStreams time plus overhead by construction and
// residual is the time spent outside RunStreams (on fig9, inside jobs).
type ledgerNs struct {
	decodeSelf, ctrl, cmpSelf, overhead, layers, residual int64
}

func (t *totals) ledger() ledgerNs {
	var l ledgerNs
	l.decodeSelf = t.decodeSpanNs - t.extendNs
	for _, f := range t.fam {
		l.ctrl += f.accessNs + f.tickNs
	}
	l.cmpSelf = t.runNs - t.streamNs - l.ctrl - t.cpuNs - t.l1Ns
	if t.sweep {
		l.overhead = t.workerNs - t.jobNs
	}
	l.layers = t.synthNs + t.recordNs + l.decodeSelf + t.cpuNs + t.l1Ns + l.cmpSelf + l.ctrl + l.overhead
	l.residual = t.workerNs - l.layers
	return l
}

// check reports a ledger whose remainders are negative or too large.
// Because cmp.self_s absorbs any error in the isolated cpu.self_s and
// cache.l1_s estimates, bounding it is what catches a layer measured
// wrongly. It is a timing check, not a check of the program's outputs: the
// isolated replays run after the traced simulation, so a change of host
// speed between the two moves cmp.self_s as well (see the package comment).
func (t *totals) check() error {
	l := t.ledger()
	switch {
	case l.cmpSelf < 0:
		return fmt.Errorf("cmp.self_s is negative (%.4f s): the isolated replays count more time than RunStreams took", sec(l.cmpSelf))
	case float64(l.cmpSelf) > maxCmpShare*float64(t.runNs):
		return fmt.Errorf("cmp.self_s is %.4f s of %.4f s in RunStreams, over %.0f%%: a layer inside it went unmeasured",
			sec(l.cmpSelf), sec(t.runNs), 100*maxCmpShare)
	case l.overhead < 0:
		return fmt.Errorf("sweep.overhead_s is negative (%.4f s): the job spans exceed the workers' time", sec(l.overhead))
	case math.Abs(float64(l.residual)) > maxResidualShare*float64(t.workerNs):
		return fmt.Errorf("ledger.residual_s is %.4f s of %.4f worker-seconds, over %.0f%%: a layer outside RunStreams is missing",
			sec(l.residual), sec(t.workerNs), 100*maxResidualShare)
	}
	return nil
}

// metrics renders the per-layer metrics; untracedWall is the untraced
// sample's wall time in seconds.
func (t *totals) metrics(untracedWall float64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	count := func(name string, v int64) { put(name, float64(v), "count") }
	l := t.ledger()

	put("trace.synth_s", sec(t.synthNs), "s")
	count("trace.synth_instr", t.synthInstr)
	put("trace.record_s", sec(t.recordNs), "s")
	put("trace.recorded_bytes", float64(t.recordedBytes), "bytes")
	put("trace.decode_s", sec(l.decodeSelf), "s")
	count("trace.decode_instr", t.decodeInstr)

	put("cpu.self_s", sec(t.cpuNs), "s")
	count("cpu.instr", t.instr)
	put("cpu.ns_per_instr", ratio(float64(t.cpuNs), float64(t.instr)), "ns")
	put("cpu.ipc", ratio(float64(t.instr), float64(t.coreCycles)), "instr/cycle")
	put("cpu.stall_cycles", float64(t.stalls), "cycles")

	put("cache.l1_s", sec(t.l1Ns), "s")
	count("cache.l1_accesses", t.l1Acc)
	put("cache.l1_miss_ratio", ratio(float64(t.l1Miss), float64(t.l1Acc)), "ratio")

	put("cmp.self_s", sec(l.cmpSelf), "s")
	count("cmp.core_quanta", t.quanta)

	for _, name := range families {
		f, p := t.fam[name], famPrefix[name]
		put(p+".access_s", sec(f.accessNs), "s")
		put(p+".tick_s", sec(f.tickNs), "s")
		count(p+".calls", f.calls)
		put(p+".ns_per_call", ratio(float64(f.accessNs), float64(f.calls)), "ns")
		put(p+".remote_hit_share", ratio(float64(f.remote), float64(f.l2)), "ratio")
		put(p+".offchip_share", ratio(float64(f.offchip), float64(f.l2)), "ratio")
	}
	for _, name := range coopFamilies {
		f, p := t.fam[name], famPrefix[name]
		count(p+".spills", f.spills)
		count(p+".spill_no_taker", f.noTaker)
		count(p+".retrieval_hits", f.rhits)
		put(p+".retrieval_hit_ratio", ratio(float64(f.rhits), float64(f.retrievals)), "ratio")
	}
	count("core.snug.stranded_dropped", t.fam["SNUG"].stranded)

	count("bus.transactions", t.busTx)
	put("bus.busy_cycles", float64(t.busBusy), "cycles")
	put("bus.wait_cycles", float64(t.busWait), "cycles")
	count("mem.dram_reads", t.dramR)
	count("mem.dram_writes", t.dramW)
	count("mem.wb_direct_reads", t.wbDirect)
	count("mem.wb_full_stalls", t.wbFull)

	count("sweep.jobs", t.jobs)
	count("sweep.failed", t.failed)
	count("sweep.retried", t.retried)
	put("sweep.job_s", sec(t.jobNs), "s")
	put("sweep.put_s", sec(t.putNs), "s")
	put("sweep.overhead_s", sec(l.overhead), "s")

	wall := sec(t.workerNs) / float64(t.par)
	put("ledger.wall_s", wall, "s")
	put("ledger.layers_s", sec(l.layers), "s")
	put("ledger.residual_s", sec(l.residual), "s")
	put("ledger.trace_overhead_s", wall-untracedWall, "s")
	return m
}
