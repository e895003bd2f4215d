package cpu_test

import (
	"testing"

	"snug/internal/bench"
	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/cpu"
	"snug/internal/sweep"
	"snug/internal/workloads"
)

// TestTapeDensity pins the tape's size on the streams the Figure 9
// evaluation records, as internal/trace's TestRecordingDensity does for the
// plain recording: every Table 8 combo's four streams at the test scale and
// the default seed, built as Evaluate's jobs build them, first 500k
// instructions each. The tapes are what a sweep's in-flight cells hold.
//
// The tape measures 1.044 B/instr here, against the recording's 1.434: an
// op byte per instruction, and address varints only for the L1 misses and
// their dirty victims.
func TestTapeDensity(t *testing.T) {
	if testing.Short() {
		t.Skip("records 42M instructions")
	}
	const limit = 1.06 // bytes per instruction
	cfg := config.TestScale()
	var instrs, bytes int64
	for _, combo := range workloads.Table8() {
		c := cfg
		c.Seed = sweep.JobSeed(cfg.Seed, combo.Name)
		streams, err := cmp.WorkloadStreams(c, combo.Cores, cmp.PhaseRefs(bench.Cycles))
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range streams {
			tape := cpu.NewTape(c, i, s)
			tape.Record(500_000)
			n, b := tape.Size()
			instrs += n
			bytes += b
			tape.Recycle()
		}
	}
	perInstr := float64(bytes) / float64(instrs)
	t.Logf("%d instructions in %d bytes (%.3f B/instr)", instrs, bytes, perInstr)
	if perInstr > limit {
		t.Errorf("tape uses %.3f B/instr, want at most %.2f", perInstr, limit)
	}
}
