package cpu

import (
	"testing"

	"snug/internal/isa"
)

func TestPredictorLearnsBias(t *testing.T) {
	p := NewPredictor(1024, 10)
	// A strongly biased branch must be predicted correctly after warm-up.
	const pc = 0x400
	wrong := 0
	for i := 0; i < 512; i++ {
		if p.Update(pc, true) {
			wrong++
		}
	}
	if p.table[p.index(pc)] < 2 {
		t.Fatal("predictor did not learn an always-taken branch")
	}
	if acc := 1 - float64(wrong)/512; acc < 0.9 {
		t.Fatalf("accuracy %.2f on an always-taken branch", acc)
	}
}

func TestPredictorLearnsAlternation(t *testing.T) {
	// A T/NT alternating branch is captured by global history.
	p := NewPredictor(1024, 10)
	taken := false
	for i := 0; i < 4000; i++ {
		p.Update(0x88, taken)
		taken = !taken
	}
	// Measure over the last quarter: history-based prediction should be
	// far above the 50% a bimodal predictor would achieve.
	correct := 0
	for i := 0; i < 400; i++ {
		if !p.Update(0x88, taken) {
			correct++
		}
		taken = !taken
	}
	if correct < 350 {
		t.Fatalf("alternating branch predicted %d/400; 2-level history should capture it", correct)
	}
}

func TestBTBHitMiss(t *testing.T) {
	b := NewBTB(16, 2)
	if b.LookupInsert(0x1000) {
		t.Fatal("cold BTB hit")
	}
	if !b.LookupInsert(0x1000) {
		t.Fatal("BTB miss after insert")
	}
	// Conflict eviction: three distinct PCs mapping to one 2-way set.
	base := uint64(0x2000)
	stride := uint64(16 * 4) // sets * pc granularity
	b.LookupInsert(base)
	b.LookupInsert(base + stride)
	b.LookupInsert(base + 2*stride)
	if b.LookupInsert(base) {
		t.Fatal("LRU entry survived two conflicting inserts")
	}
}

func TestRASMatchedCallsReturn(t *testing.T) {
	r := NewRAS(8)
	r.Push(0x100)
	r.Push(0x200)
	if !r.Pop(0x200) || !r.Pop(0x100) {
		t.Fatal("matched returns mispredicted")
	}
	if r.Pop(0x300) {
		t.Fatal("empty-stack pop predicted correctly")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if !r.Pop(3) || !r.Pop(2) {
		t.Fatal("recent entries lost")
	}
	if r.Pop(1) {
		t.Fatal("overwritten entry predicted correctly")
	}
}

func TestLSQBoundsOutstandingMisses(t *testing.T) {
	// With a tiny LSQ, long-latency independent loads serialize in groups;
	// a large LSQ must be strictly faster on the same stream.
	run := func(lsq int) float64 {
		cfg := testCoreConfig()
		cfg.LSQSize = lsq
		c := NewCore(cfg)
		n := c.Run(50_000, &fixedStream{pattern: []isa.Instr{{Kind: isa.KindLoad, Addr: 0x40}}}, flatMem(100))
		return float64(n) / 50_000
	}
	small, big := run(4), run(64)
	if big <= small {
		t.Fatalf("LSQ 64 IPC %.3f <= LSQ 4 IPC %.3f; queue not limiting MLP", big, small)
	}
}
