package trace

import (
	"slices"
	"sync"
	"testing"

	"snug/internal/addr"
	"snug/internal/chunklog"
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
// well under 4 bytes per instruction (raw isa.Instr is 48).
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
	if got <= 0 || got > 4*chunklog.Batch {
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
	pc, lin uint64
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
// (0x10), Taken (0x20), and the PC. That is a jump by a word (0x40), else
// a return to the straight line at its last PC + 4 (0x80), else +4. The
// straight line is the last PC reached by +4 or a return, as a generator
// falls back to it after a branch site, so arbitrary inputs reach every
// mode of the recording's PC encoding.
func (s *byteStream) Next(in *isa.Instr) {
	b := s.data[s.ctl]
	s.ctl = (s.ctl + 1) % len(s.data)
	*in = isa.Instr{
		Kind:    isa.Kind(int(b&0x0f) % isa.NumKinds),
		DepPrev: b&0x10 != 0,
		Taken:   b&0x20 != 0,
	}
	switch {
	case b&0x40 != 0:
		s.pc += s.word()
	case b&0x80 != 0:
		s.pc = s.lin + 4
		s.lin = s.pc
	default:
		s.pc += 4
		s.lin = s.pc
	}
	in.PC = s.pc
	switch in.Kind {
	case isa.KindLoad, isa.KindStore:
		in.Addr = addr.Addr(s.word())
	case isa.KindReturn:
		in.Target = s.word()
	}
}

// pcModeSeeds are byteStream inputs that drive the recording's PC
// encoding through its corner cases. Words are read from the start of the
// same bytes, so each word's leading bytes double as control bytes.
var pcModeSeeds = []struct {
	name string
	data []byte
	hits []func(pcStep) bool // each holds for one of the first 64 steps
}{
	{
		// +4, a jump, +4 (seq right after the out-of-line PC), a jump, a
		// return to the straight line (resume right after it).
		name: "seq and resume after out-of-line",
		data: []byte{0x00, 0x40, 0x00, 0x40, 0x80, 0x01, 0x02, 0x03},
		hits: []func(pcStep) bool{
			func(s pcStep) bool { return s.prevOut && s.mode == metaPCSeq },
			func(s pcStep) bool { return s.prevOut && s.mode == metaPCResume },
		},
	},
	{
		// Two jumps whose words sum to 4: the second lands on the linear
		// PC + 4 (0 + 4), so a jump in the source is encoded as a resume.
		name: "jump to the linear PC + 4",
		data: []byte{0x40, 0x40, 0, 0, 0, 0, 0, 0, 0xbf, 0xc0, 0, 0, 0, 0, 0, 0x04},
		hits: []func(pcStep) bool{
			func(s pcStep) bool { return s.prevOut && s.mode == metaPCResume && s.pc == 4 },
		},
	},
	{
		// Jumps to 0x7f40<<48 and on by 0x9000<<48, which wraps past 2^64:
		// the out-of-line delta is negative and takes a 10-byte varint.
		name: "wrapping 10-byte delta",
		data: []byte{0x7f, 0x40, 0, 0, 0, 0, 0, 0, 0x90, 0, 0, 0, 0, 0, 0, 0},
		hits: []func(pcStep) bool{
			func(s pcStep) bool { return s.mode == metaPCOut && s.varint == 10 && s.pc < s.prevOutPC },
		},
	},
}

// pcStep is one instruction's PC encoding, read back from a recording.
type pcStep struct {
	mode      byte   // metaPCOut, metaPCSeq or metaPCResume
	varint    int    // PC varint length (out-of-line only)
	pc        uint64 // decoded PC
	prevOut   bool   // the previous instruction was out-of-line
	prevOutPC uint64 // the out-of-line PC before this instruction
}

// pcSteps reads the PC encoding of rec's first n instructions from its
// first chunk.
func pcSteps(rec *Recording, n int) []pcStep {
	buf := rec.log.Cursor().Buf
	var steps []pcStep
	var pc, lin, out uint64
	prevOut := false
	for off := 0; len(steps) < n; {
		meta := buf[off]
		off++
		s := pcStep{mode: meta & metaPCMask, prevOut: prevOut, prevOutPC: out}
		switch s.mode {
		case metaPCOut:
			d, o := uvarint(buf, off)
			s.varint, off = o-off, o
			out += zag(d)
			pc = out
		case metaPCSeq:
			pc += 4
			lin = pc
		case metaPCResume:
			lin += 4
			pc = lin
		}
		s.pc = pc
		prevOut = s.mode == metaPCOut
		switch isa.Kind(meta & metaKindMask) {
		case isa.KindLoad, isa.KindStore, isa.KindReturn:
			_, off = uvarint(buf, off)
		}
		steps = append(steps, s)
	}
	return steps
}

// TestPCModeSeedsHitTheirCase checks that each of FuzzRecordingRoundTrip's
// PC-mode seeds reaches the encoding case it is named for.
func TestPCModeSeedsHitTheirCase(t *testing.T) {
	for _, seed := range pcModeSeeds {
		rec := NewRecording(&byteStream{data: seed.data})
		rec.Record(64)
		steps := pcSteps(rec, 64)
		for i, hit := range seed.hits {
			if !slices.ContainsFunc(steps, hit) {
				t.Errorf("seed %q: no instruction of the first 64 hits case %d", seed.name, i)
			}
		}
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
	for _, seed := range pcModeSeeds {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rec := NewRecording(&byteStream{data: data})
		for rec.Bytes() <= chunklog.ChunkBytes {
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

// benchPrefix is how many instructions the replay benchmarks record up
// front; they decode it over and over, so no extension is timed.
const benchPrefix = 1 << 20

// benchRecording records benchPrefix instructions of ammp.
func benchRecording(b *testing.B) *Recording {
	prof, err := ByName("ammp")
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGenerator(prof, recGeom, 42, 50_000)
	if err != nil {
		b.Fatal(err)
	}
	rec := NewRecording(g)
	rec.Record(benchPrefix)
	return rec
}

// benchReplay times decoding b.N instructions of rec, one instruction per
// op, with decode, which reads n instructions from a cursor. Opening the
// cursors is not timed.
func benchReplay(b *testing.B, rec *Recording, decode func(rp *Replay, n int)) {
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		rp := rec.Replay()
		b.StartTimer()
		n := min(b.N-done, benchPrefix)
		decode(rp, n)
		done += n
	}
}

// BenchmarkReplayNext times replay decode one instruction per Next call,
// the path a cursor read through isa.Stream takes.
func BenchmarkReplayNext(b *testing.B) {
	var in isa.Instr
	benchReplay(b, benchRecording(b), func(rp *Replay, n int) {
		for i := 0; i < n; i++ {
			rp.Next(&in)
		}
	})
}

// BenchmarkReplayNextBatch times replay decode in 256-instruction batches,
// as the core model reads a replay.
func BenchmarkReplayNextBatch(b *testing.B) {
	buf := make([]isa.Instr, 256)
	benchReplay(b, benchRecording(b), func(rp *Replay, n int) {
		for n > 0 {
			n -= rp.NextBatch(buf[:min(n, len(buf))])
		}
	})
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
