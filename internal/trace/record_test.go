package trace

import (
	"sync"
	"testing"

	"snug/internal/addr"
	"snug/internal/isa"
)

// recGeom mirrors the test-scale L2 slice geometry.
var recGeom = addr.MustGeometry(64, 64)

// newTestGen builds a fresh generator for the named profile and seed.
func newTestGen(t *testing.T, name string, seed uint64) *Generator {
	t.Helper()
	prof, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(prof, recGeom, seed, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestReplayMatchesLiveStream is the subsystem's core contract: a replay
// serves exactly the instructions the live generator would have produced,
// field for field, across phase transitions and every instruction kind.
func TestReplayMatchesLiveStream(t *testing.T) {
	for _, name := range []string{"ammp", "vortex", "mcf", "swim"} {
		live := newTestGen(t, name, 42)
		rec := NewRecording(newTestGen(t, name, 42))
		rp := rec.Replay()
		var want, got isa.Instr
		for i := 0; i < 300_000; i++ {
			live.Next(&want)
			rp.Next(&got)
			if got != want {
				t.Fatalf("%s: instruction %d: replay %+v, live %+v", name, i, got, want)
			}
		}
		if rp.Pos() != 300_000 {
			t.Errorf("%s: Pos() = %d, want 300000", name, rp.Pos())
		}
	}
}

// TestReplayNextBatchMatchesNext: the batched decode path is the one the
// core model's run loop uses; it must serve exactly the instructions Next
// would, across window boundaries and ragged batch sizes (including
// batches larger than one extension).
func TestReplayNextBatchMatchesNext(t *testing.T) {
	rec := NewRecording(newTestGen(t, "vortex", 42))
	one := rec.Replay()
	batched := rec.Replay()
	sizes := []int{1, 3, 256, 17, 4096 + 9, 64}
	buf := make([]isa.Instr, 4096+9)
	var want isa.Instr
	total := int64(0)
	for i := 0; total < 40_000; i++ {
		n := sizes[i%len(sizes)]
		if got := batched.NextBatch(buf[:n]); got != n {
			t.Fatalf("NextBatch(%d) = %d", n, got)
		}
		for j := 0; j < n; j++ {
			one.Next(&want)
			if buf[j] != want {
				t.Fatalf("instruction %d: batch %+v, next %+v", total+int64(j), buf[j], want)
			}
		}
		total += int64(n)
		if batched.Pos() != total {
			t.Fatalf("Pos() = %d after %d batched instructions", batched.Pos(), total)
		}
	}
}

// TestReplayCursorsIndependent checks that cursors over one recording do
// not disturb each other: a second cursor started later sees the stream
// from the beginning.
func TestReplayCursorsIndependent(t *testing.T) {
	rec := NewRecording(newTestGen(t, "parser", 7))
	a := rec.Replay()
	var in isa.Instr
	first := make([]isa.Instr, 1000)
	for i := range first {
		a.Next(&first[i])
	}
	// Drain a further ahead, then start b from scratch.
	for i := 0; i < 100_000; i++ {
		a.Next(&in)
	}
	b := rec.Replay()
	for i := range first {
		b.Next(&in)
		if in != first[i] {
			t.Fatalf("instruction %d: second cursor %+v, first cursor %+v", i, in, first[i])
		}
	}
}

// TestReplayConcurrent runs several cursors over one shared recording from
// different goroutines (the sweep's scheme-parallel shape) and checks every
// cursor decodes the identical stream. Run under -race this also validates
// the publication protocol.
func TestReplayConcurrent(t *testing.T) {
	rec := NewRecording(newTestGen(t, "ammp", 99))
	const n = 120_000
	want := make([]isa.Instr, n)
	ref := rec.Replay()
	for i := range want {
		ref.Next(&want[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp := rec.Replay()
			var in isa.Instr
			for i := 0; i < n; i++ {
				rp.Next(&in)
				if in != want[i] {
					errs <- "cursor diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestReplayConcurrentLazyExtension has racing cursors drive extension
// themselves (no pre-recorded prefix), exercising extension under
// contention rather than read-after-publish only.
func TestReplayConcurrentLazyExtension(t *testing.T) {
	rec := NewRecording(newTestGen(t, "vortex", 3))
	const n = 80_000
	var wg sync.WaitGroup
	sums := make([]uint64, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rp := rec.Replay()
			var in isa.Instr
			var sum uint64
			for i := 0; i < n; i++ {
				rp.Next(&in)
				sum = sum*1099511628211 + in.PC ^ uint64(in.Kind)<<56 ^ uint64(in.Addr)
			}
			sums[w] = sum
		}(w)
	}
	wg.Wait()
	for w := 1; w < len(sums); w++ {
		if sums[w] != sums[0] {
			t.Fatalf("cursor %d decoded a different stream (digest %x, want %x)", w, sums[w], sums[0])
		}
	}
}

// TestRecordingCompact pins the encoding's space advantage: the paper-model
// streams are dominated by sequential-PC filler, so the recording must stay
// well under 4 bytes per instruction (raw isa.Instr is 40).
func TestRecordingCompact(t *testing.T) {
	rec := NewRecording(newTestGen(t, "ammp", 5))
	rec.Record(200_000)
	n, bytes := rec.Len(), rec.Bytes()
	if n < 200_000 {
		t.Fatalf("recorded %d instructions, want >= 200000", n)
	}
	perInstr := float64(bytes) / float64(n)
	if perInstr >= 4 {
		t.Errorf("encoding uses %.2f bytes/instruction, want < 4", perInstr)
	}
	t.Logf("%d instructions in %d bytes (%.2f B/instr)", n, bytes, perInstr)
}

// TestRecordingLazy checks extension happens on demand, not eagerly.
func TestRecordingLazy(t *testing.T) {
	rec := NewRecording(newTestGen(t, "gzip", 11))
	if rec.Len() != 0 {
		t.Fatalf("fresh recording has %d instructions, want 0", rec.Len())
	}
	rp := rec.Replay()
	var in isa.Instr
	rp.Next(&in)
	got := rec.Len()
	if got <= 0 || got > 4*extendBatch {
		t.Errorf("after one Next, recording holds %d instructions, want one small batch", got)
	}
}

// byteStream expands fuzz bytes into an endless, cyclic instruction stream
// that keeps the isa.Stream contract: Kind below isa.NumKinds, Addr only on
// loads and stores, Target only on returns. Each instruction takes one
// control byte from one cursor; 8-byte words for PC deltas, addresses and
// targets come from a second cursor, so the control bytes are served in
// the order given and any ordering of kinds and flags can be spelled out.
type byteStream struct {
	data    []byte
	ctl, wd int
	pc      uint64
}

func (s *byteStream) Name() string { return "fuzz" }

func (s *byteStream) word() uint64 {
	var w uint64
	for i := 0; i < 8; i++ {
		w = w<<8 | uint64(s.data[s.wd])
		s.wd = (s.wd + 1) % len(s.data)
	}
	return w
}

// Next decodes control byte b as: kind (b&0x0f) mod NumKinds, DepPrev
// (0x10), Taken (0x20), and a PC jump by a word (0x40) rather than +4.
func (s *byteStream) Next(in *isa.Instr) {
	b := s.data[s.ctl]
	s.ctl = (s.ctl + 1) % len(s.data)
	*in = isa.Instr{
		Kind:    isa.Kind(int(b&0x0f) % isa.NumKinds),
		DepPrev: b&0x10 != 0,
		Taken:   b&0x20 != 0,
	}
	if b&0x40 != 0 {
		s.pc += s.word()
	} else {
		s.pc += 4
	}
	in.PC = s.pc
	switch in.Kind {
	case isa.KindLoad, isa.KindStore:
		in.Addr = addr.Addr(s.word())
	case isa.KindReturn:
		in.Target = s.word()
	}
}

// FuzzRecordingRoundTrip records arbitrary contract-keeping streams and
// replays them through Next and through NextBatch at ragged sizes, field
// for field. Recordings never come from outside the process, so the
// property is the round trip, not resistance to corrupt bytes. Each input
// is recorded past its first 64 KiB chunk.
func FuzzRecordingRoundTrip(f *testing.F) {
	// Every kind with every DepPrev/Taken combination, sequential and not.
	var all []byte
	for k := byte(0); k < byte(isa.NumKinds); k++ {
		for flags := byte(0); flags < 8; flags++ {
			all = append(all, k|flags<<4)
		}
	}
	f.Add(all)
	f.Add([]byte{0})
	f.Add([]byte{0x44, 0xff, 0x80, 0x00, 0x7f, 0x01, 0xfe})
	f.Add([]byte{0x48, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x05, 0x31})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rec := NewRecording(&byteStream{data: data})
		for len(*rec.chunks.Load()) < 2 {
			rec.Record(rec.Len() + 1)
		}
		n := rec.Len() + 100 // read past the recorded prefix too

		ref := &byteStream{data: data}
		rp := rec.Replay()
		var want, got isa.Instr
		for i := int64(0); i < n; i++ {
			ref.Next(&want)
			rp.Next(&got)
			if got != want {
				t.Fatalf("Next: instruction %d: replay %+v, source %+v", i, got, want)
			}
		}

		ref = &byteStream{data: data}
		rp = rec.Replay()
		sizes := [...]int{1, 5, 256, 4099, 17, 63}
		buf := make([]isa.Instr, 4099)
		for i, done := 0, int64(0); done < n; i++ {
			batch := buf[:sizes[i%len(sizes)]]
			if k := rp.NextBatch(batch); k != len(batch) {
				t.Fatalf("NextBatch(%d) = %d", len(batch), k)
			}
			for j := range batch {
				ref.Next(&want)
				if batch[j] != want {
					t.Fatalf("NextBatch: instruction %d: replay %+v, source %+v", done+int64(j), batch[j], want)
				}
			}
			done += int64(len(batch))
		}
	})
}

// BenchmarkReplayNext measures the replay decode hot path.
func BenchmarkReplayNext(b *testing.B) {
	prof, err := ByName("ammp")
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGenerator(prof, recGeom, 42, 50_000)
	if err != nil {
		b.Fatal(err)
	}
	rec := NewRecording(g)
	rec.Record(int64(1_000_000))
	rp := rec.Replay()
	var in isa.Instr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rp.Pos() >= 1_000_000 {
			rp = rec.Replay() // stay inside the pre-recorded prefix
		}
		rp.Next(&in)
	}
}

// BenchmarkGeneratorNext measures live synthesis, one instruction per op,
// read through isa.Stream as a core reads a live stream: ammp for the
// floating-point mix, parser for the integer mix.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, name := range []string{"ammp", "parser"} {
		b.Run(name, func(b *testing.B) {
			prof, err := ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			g, err := NewGenerator(prof, recGeom, 42, 50_000)
			if err != nil {
				b.Fatal(err)
			}
			var s isa.Stream = g
			var in isa.Instr
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Next(&in)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/instr")
		})
	}
}

// TestRecycleReusesChunksAndPoisons pins the Recycle contract: recycled
// recordings return their chunk storage to the shared pool (a fresh
// recording decodes correctly over the reused memory), and any use of the
// recycled recording panics instead of silently reading another stream's
// bytes.
func TestRecycleReusesChunksAndPoisons(t *testing.T) {
	const n = 200_000 // tens of chunks: reuse exercises more than one buffer
	first := NewRecording(newTestGen(t, "ammp", 1))
	first.Record(n)
	first.Recycle()
	first.Recycle() // idempotent

	// A post-recycle recording draws from the pool; its replay must match
	// its own live source exactly even though the buffers were just used.
	rec := NewRecording(newTestGen(t, "swim", 2))
	rep := rec.Replay()
	live := newTestGen(t, "swim", 2)
	var want, got isa.Instr
	for i := 0; i < n; i++ {
		live.Next(&want)
		rep.Next(&got)
		if got != want {
			t.Fatalf("instr %d after recycle: got %+v want %+v", i, got, want)
		}
	}

	for name, f := range map[string]func(){
		"Replay": func() { first.Replay() },
		"Record": func() { first.Record(first.Len() + 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a recycled recording did not panic", name)
				}
			}()
			f()
		}()
	}
}
