package cpu

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"snug/internal/addr"
	"snug/internal/chunklog"
	"snug/internal/config"
	"snug/internal/isa"
	"snug/internal/trace"
)

// tapeOp is one op as a cursor reads it: the op byte and, for an L1 miss,
// the miss and dirty-victim addresses.
type tapeOp struct {
	op           byte
	miss, victim addr.Addr
}

// readOps reads n ops from c the way Core.RunTape does, refilling when the
// published window runs out.
func readOps(c *TapeCursor, n int) []tapeOp {
	ops := make([]tapeOp, n)
	for i := range ops {
		if c.c.Off >= c.c.Used {
			c.c.Refill()
		}
		buf := c.c.Buf
		o := tapeOp{op: buf[c.c.Off]}
		c.c.Off++
		if k := isa.Kind(o.op & opKind); (k == isa.KindLoad || k == isa.KindStore) && o.op&opOutcome != 0 {
			d, m := binary.Varint(buf[c.c.Off:])
			c.c.Off += m
			c.miss += addr.Addr(d)
			o.miss = c.miss
			if o.op&opVictim != 0 {
				d, m := binary.Varint(buf[c.c.Off:])
				c.c.Off += m
				o.victim = c.miss + addr.Addr(d)
			}
		}
		ops[i] = o
	}
	return ops
}

// newTapeSource is a live generator for the named benchmark on the
// test-scale system.
func newTapeSource(t testing.TB, name string, seed uint64) isa.Stream {
	t.Helper()
	prof, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	l2 := config.TestScale().Mem.L2Slice
	g, err := trace.NewGenerator(prof, addr.MustGeometry(l2.BlockBytes, l2.Sets()), seed, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTapeConcurrentCursors has several goroutines read one fresh tape from
// its start while their reads extend it, and checks that each sees the ops
// a lone cursor reads from a tape recorded in advance. Run under -race it
// also checks that the tape's encoder state is touched only under the
// log's lock. It rarely hits the nanosecond window in which a cursor could
// skip the ops written just before its chunk closed;
// chunklog's TestRefillRereadsClosedChunk forces that interleaving.
func TestTapeConcurrentCursors(t *testing.T) {
	const n = 250_000 // several chunks
	cfg := config.TestScale()
	ref := NewTape(cfg, 1, newTapeSource(t, "mcf", 5))
	ref.Record(n)
	want := readOps(ref.Cursor(), n)

	tape := NewTape(cfg, 1, newTapeSource(t, "mcf", 5))
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got := readOps(tape.Cursor(), n)
			for i := range got {
				if got[i] != want[i] {
					errs[w] = fmt.Errorf("cursor %d: op %d is %+v, want %+v", w, i, got[i], want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if bytes := tape.log.Bytes(); bytes <= 2*chunklog.ChunkBytes {
		t.Errorf("the tape holds %d bytes, want more than 2 chunks' worth", bytes)
	}
}

// TestTapeRecycle pins the Recycle contract: a recycled tape panics on a
// new cursor and on a read past its recorded prefix instead of serving
// another tape's bytes.
func TestTapeRecycle(t *testing.T) {
	tape := NewTape(config.TestScale(), 0, newTapeSource(t, "ammp", 1))
	c := tape.Cursor()
	readOps(c, 10)
	tape.Recycle()
	tape.Recycle() // idempotent
	for name, f := range map[string]func(){
		"Cursor":            func() { tape.Cursor() },
		"read past the end": func() { c.c.Off = c.c.Used; readOps(c, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a recycled tape did not panic", name)
				}
			}()
			f()
		}()
	}
}

// fuzzStream expands fuzz bytes into an endless, cyclic instruction stream
// that keeps the isa.Stream contract and reaches every case of the tape:
// hits, misses with and without a dirty victim, and redirects of each
// control kind. Each instruction takes a control byte b: kind (b&0x0f) mod
// NumKinds, DepPrev (0x10), Taken (0x20), and a jump (0x40) to one of 256
// branch sites named by the next byte, else the next PC. A load or store
// takes its address from the next byte, within a window four times the
// test-scale L1, or a full 8-byte word when that byte is 0xf0 or more. A
// return with 0x80 goes back to its call, otherwise to a word.
type fuzzStream struct {
	data  []byte
	i     int
	pc    uint64
	calls []uint64
}

func (s *fuzzStream) Name() string { return "fuzz" }

func (s *fuzzStream) byte() byte {
	b := s.data[s.i]
	s.i = (s.i + 1) % len(s.data)
	return b
}

func (s *fuzzStream) word() uint64 {
	var w uint64
	for i := 0; i < 8; i++ {
		w = w<<8 | uint64(s.byte())
	}
	return w
}

func (s *fuzzStream) Next(in *isa.Instr) {
	b := s.byte()
	*in = isa.Instr{
		Kind:    isa.Kind(int(b&0x0f) % isa.NumKinds),
		DepPrev: b&0x10 != 0,
		Taken:   b&0x20 != 0,
	}
	if b&0x40 != 0 {
		s.pc = uint64(s.byte()) * 4
	} else {
		s.pc += 4
	}
	in.PC = s.pc
	switch in.Kind {
	case isa.KindLoad, isa.KindStore:
		if a := s.byte(); a < 0xf0 {
			in.Addr = addr.Addr(a) * 72
		} else {
			in.Addr = addr.Addr(s.word())
		}
	case isa.KindCall:
		if len(s.calls) == 16 {
			s.calls = append(s.calls[:0], s.calls[1:]...)
		}
		s.calls = append(s.calls, s.pc+4)
	case isa.KindReturn:
		if n := len(s.calls); n > 0 && b&0x80 != 0 {
			in.Target = s.calls[n-1]
			s.calls = s.calls[:n-1]
		} else {
			in.Target = s.word()
		}
	}
}

// l2Call is one call below the L1: 'A' for Access, 'W' for WritebackL1.
type l2Call struct {
	kind  byte
	core  int
	now   int64
	a     addr.Addr
	write bool
}

// logL2 logs every call and answers the i-th Access with now plus a
// latency picked by i, so two cores making the same calls get the same
// answers.
type logL2 struct {
	log      []l2Call
	accesses int
}

func (l *logL2) Access(core int, now int64, a addr.Addr, write bool) int64 {
	l.log = append(l.log, l2Call{'A', core, now, a, write})
	l.accesses++
	return now + [...]int64{9, 300, 30, 1, 41}[l.accesses%5]
}

func (l *logL2) WritebackL1(core int, now int64, a addr.Addr) {
	l.log = append(l.log, l2Call{kind: 'W', core: core, now: now, a: a})
}

// FuzzTapeRoundTrip checks the tape against the live path it replaces: any
// contract-keeping instruction stream, stepped by Core.RunTape over its
// tape, gives after every quantum the cpu.Stats, the L1 hit and miss
// counts and the ordered calls below the L1 that Core.Run gives over the
// plain stream through L1.Access. shape picks the core through
// randCoreConfig (shapeDraw); shape 0 is the test-scale core. Each input
// runs until its tape holds more than one chunk's worth of bytes.
func FuzzTapeRoundTrip(f *testing.F) {
	var all []byte // every kind with every flag
	for k := byte(0); k < byte(isa.NumKinds); k++ {
		for flags := byte(0); flags < 16; flags++ {
			all = append(all, k|flags<<4, 3*k+flags)
		}
	}
	f.Add(uint64(0), all)
	f.Add(uint64(0), []byte{0})
	f.Add(uint64(0), []byte{byte(isa.KindStore), 0x11, byte(isa.KindLoad), 0x95, byte(isa.KindStore), 0xfe})
	f.Add(uint64(0), []byte{byte(isa.KindCall) | 0x40, 7, byte(isa.KindReturn) | 0x80, byte(isa.KindBranch) | 0x60, 3})
	// Shape 1 draws 0 after its first choice: widths 1, an RUU of 1 and an
	// LSQ of 1, so every load or store finds the LSQ full. The stores go to
	// five blocks of one L1 set, which thrash its four ways, so each
	// misses and the load behind it stalls until the miss returns.
	var fillLSQ []byte
	for i := byte(1); i <= 5; i++ {
		fillLSQ = append(fillLSQ, byte(isa.KindStore), 0xf0, 0, 0, 0, 0, 0, 0, 4*i, 0, byte(isa.KindLoad), 0x10)
	}
	f.Add(uint64(1), fillLSQ)
	f.Fuzz(func(t *testing.T, shape uint64, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := config.TestScale()
		cfg.Core = randCoreConfig(shapeDraw(shape))
		if err := cfg.Validate(); err != nil {
			t.Fatalf("shape %d: %v", shape, err)
		}
		core := len(data) % cfg.Cores
		live, tapeCore := NewCore(cfg.Core), NewCore(cfg.Core)
		liveL2, tapeL2 := &logL2{}, &logL2{}
		l1 := NewL1(cfg, core, liveL2)
		src := &fuzzStream{data: data}
		tape := NewTape(cfg, core, &fuzzStream{data: data})
		cur := tape.Cursor()
		for until := int64(0); tape.log.Bytes() <= chunklog.ChunkBytes; {
			until += cfg.Quantum
			live.Run(until, src, l1.Access)
			tapeCore.RunTape(until, cur, tapeL2, int64(cfg.Mem.L1Lat))
			if live.Stats() != tapeCore.Stats() {
				t.Fatalf("to cycle %d: tape stats %+v; live %+v", until, tapeCore.Stats(), live.Stats())
			}
			st := l1.Stats()
			if hits, misses := cur.L1(); hits != st.Hits || misses != st.Misses {
				t.Fatalf("to cycle %d: tape counts %d L1 hits and %d misses, live %d and %d", until, hits, misses, st.Hits, st.Misses)
			}
			if len(tapeL2.log) != len(liveL2.log) {
				t.Fatalf("to cycle %d: %d calls below the L1 from the tape, %d live", until, len(tapeL2.log), len(liveL2.log))
			}
			for i := range liveL2.log {
				if tapeL2.log[i] != liveL2.log[i] {
					t.Fatalf("call %d below the L1: tape %+v, live %+v", i, tapeL2.log[i], liveL2.log[i])
				}
			}
			liveL2.log, tapeL2.log = liveL2.log[:0], tapeL2.log[:0]
		}
	})
}

// shapeDraw reads shape as a mixed-radix number for randCoreConfig: each
// draw(n) takes the next digit in base n, least significant first, so
// every shape names a core and shape 0 the default one.
func shapeDraw(shape uint64) func(n int) int {
	return func(n int) int {
		d := int(shape % uint64(n))
		shape /= uint64(n)
		return d
	}
}

// fixedL2 answers every miss its latency after issue and takes write-backs
// at no cost.
type fixedL2 int64

func (l fixedL2) Access(_ int, now int64, _ addr.Addr, _ bool) int64 { return now + int64(l) }

func (fixedL2) WritebackL1(int, int64, addr.Addr) {}

// BenchmarkRunTape times the tape loop alone, the core-step layer of a
// sweep: one test-scale core at a time steps over a tape of each of ammp,
// swim, mcf and parser for 1.2M cycles in 100-cycle quanta, against an L2
// that answers every miss 10 cycles after issue. An untimed first run
// records the tapes. It reports ns/instr, nanoseconds per instruction
// stepped.
func BenchmarkRunTape(b *testing.B) {
	const cycles = 1_200_000
	cfg := config.TestScale()
	names := []string{"ammp", "swim", "mcf", "parser"}
	tapes := make([]*Tape, len(names))
	run := func(tape *Tape) int64 {
		c, cur := NewCore(cfg.Core), tape.Cursor()
		for until := cfg.Quantum; until <= cycles; until += cfg.Quantum {
			c.RunTape(until, cur, fixedL2(10), int64(cfg.Mem.L1Lat))
		}
		return c.Stats().Instructions
	}
	for i, name := range names {
		tapes[i] = NewTape(cfg, i, newTapeSource(b, name, uint64(i+1)))
		run(tapes[i])
	}
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		for _, tape := range tapes {
			instrs += run(tape)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}
