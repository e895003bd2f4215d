package cpu

import (
	"testing"

	"snug/internal/addr"
	"snug/internal/config"
	"snug/internal/isa"
)

// fixedStream replays a fixed pattern of instructions forever.
type fixedStream struct {
	pattern []isa.Instr
	i       int
}

func (f *fixedStream) Next(in *isa.Instr) {
	*in = f.pattern[f.i%len(f.pattern)]
	f.i++
}
func (f *fixedStream) Name() string { return "fixed" }

func flatMem(lat int64) MemFunc {
	return func(now int64, a addr.Addr, write bool) int64 { return now + lat }
}

func runIPC(t *testing.T, pattern []isa.Instr, mem MemFunc, cycles int64) float64 {
	t.Helper()
	c := NewCore(config.Default().Core)
	c.Run(cycles, &fixedStream{pattern: pattern}, mem)
	return float64(c.Stats().Instructions) / float64(cycles)
}

func TestPureALUReachesIssueWidth(t *testing.T) {
	ipc := runIPC(t, []isa.Instr{{Kind: isa.KindALU}}, flatMem(1), 100_000)
	if ipc < 7.5 || ipc > 8.5 {
		t.Fatalf("independent ALU IPC = %.2f, want ~8 (issue width)", ipc)
	}
}

func TestDependentALUChainSerializes(t *testing.T) {
	ipc := runIPC(t, []isa.Instr{{Kind: isa.KindALU, DepPrev: true}}, flatMem(1), 100_000)
	if ipc < 0.9 || ipc > 1.1 {
		t.Fatalf("fully dependent ALU IPC = %.2f, want ~1 (latency-bound)", ipc)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	// Independent loads with 10-cycle latency should sustain near issue
	// width thanks to the LSQ (memory-level parallelism).
	ipc := runIPC(t, []isa.Instr{{Kind: isa.KindLoad, Addr: 0x1000}}, flatMem(10), 100_000)
	if ipc < 5 {
		t.Fatalf("independent-load IPC = %.2f, want >= 5 (MLP)", ipc)
	}
}

func TestLongMissStallsWindow(t *testing.T) {
	// One 300-cycle load per 127 ALU ops: the window (128) covers the ALU
	// run; IPC should be limited but far above serialized misses.
	pattern := make([]isa.Instr, 128)
	pattern[0] = isa.Instr{Kind: isa.KindLoad, Addr: 0x1000}
	for i := 1; i < 128; i++ {
		pattern[i] = isa.Instr{Kind: isa.KindALU}
	}
	ipc := runIPC(t, pattern, flatMem(300), 200_000)
	t.Logf("miss-every-128 IPC = %.3f", ipc)
	if ipc < 0.3 {
		t.Fatalf("IPC %.3f collapsed under sparse misses", ipc)
	}
}

func TestMixedStreamSteadyState(t *testing.T) {
	pattern := []isa.Instr{
		{Kind: isa.KindALU}, {Kind: isa.KindALU, DepPrev: true}, {Kind: isa.KindALU},
		{Kind: isa.KindFPU}, {Kind: isa.KindALU}, {Kind: isa.KindLoad, Addr: 64},
		{Kind: isa.KindALU}, {Kind: isa.KindBranch, PC: 0x40, Taken: true},
	}
	ipc := runIPC(t, pattern, flatMem(2), 100_000)
	t.Logf("mixed-stream IPC = %.3f", ipc)
	if ipc < 1.0 {
		t.Fatalf("mixed-stream IPC %.3f too low", ipc)
	}
}

// testCoreConfig returns the Table 4 core parameters for unit tests.
func testCoreConfig() config.Core { return config.Default().Core }
