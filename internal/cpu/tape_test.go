package cpu

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"snug/internal/addr"
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
		if c.off >= c.used {
			c.refill()
		}
		o := tapeOp{op: c.buf[c.off]}
		c.off++
		if k := isa.Kind(o.op & opKind); (k == isa.KindLoad || k == isa.KindStore) && o.op&opOutcome != 0 {
			d, m := binary.Varint(c.buf[c.off:])
			c.off += m
			c.miss += addr.Addr(d)
			o.miss = c.miss
			if o.op&opVictim != 0 {
				d, m := binary.Varint(c.buf[c.off:])
				c.off += m
				o.victim = c.miss + addr.Addr(d)
			}
		}
		ops[i] = o
	}
	return ops
}

// newTapeSource is a live generator for the named benchmark on the
// test-scale system.
func newTapeSource(t *testing.T, name string, seed uint64) isa.Stream {
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
// also checks the publication protocol. A cursor that skips to a newer
// chunk without re-reading the count of the chunk it exhausted would miss
// the ops written just before that chunk closed.
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
	if chunks := len(*tape.chunks.Load()); chunks < 3 {
		t.Errorf("the tape spans %d chunks, want at least 3", chunks)
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
		"read past the end": func() { c.off = c.used; readOps(c, 1) },
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
// plain stream through L1.Access. Each input runs until its tape spans two
// chunks.
func FuzzTapeRoundTrip(f *testing.F) {
	var all []byte // every kind with every flag
	for k := byte(0); k < byte(isa.NumKinds); k++ {
		for flags := byte(0); flags < 16; flags++ {
			all = append(all, k|flags<<4, 3*k+flags)
		}
	}
	f.Add(all)
	f.Add([]byte{0})
	f.Add([]byte{byte(isa.KindStore), 0x11, byte(isa.KindLoad), 0x95, byte(isa.KindStore), 0xfe})
	f.Add([]byte{byte(isa.KindCall) | 0x40, 7, byte(isa.KindReturn) | 0x80, byte(isa.KindBranch) | 0x60, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := config.TestScale()
		core := len(data) % cfg.Cores
		live, tapeCore := NewCore(cfg.Core), NewCore(cfg.Core)
		liveL2, tapeL2 := &logL2{}, &logL2{}
		l1 := NewL1(cfg, core, liveL2)
		src := &fuzzStream{data: data}
		tape := NewTape(cfg, core, &fuzzStream{data: data})
		cur := tape.Cursor()
		for until := int64(0); len(*tape.chunks.Load()) < 2; {
			until += cfg.Quantum
			n := live.Run(until, src, l1.Access)
			m := tapeCore.RunTape(until, cur, tapeL2, int64(cfg.Mem.L1Lat))
			if n != m || live.Stats() != tapeCore.Stats() {
				t.Fatalf("to cycle %d: tape ran %d instructions, stats %+v; live %d, %+v", until, m, tapeCore.Stats(), n, live.Stats())
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
