package trace_test

import (
	"testing"

	"snug/internal/bench"
	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/sweep"
	"snug/internal/trace"
	"snug/internal/workloads"
)

// TestRecordingDensity pins the recording's size on the streams the
// Figure 9 evaluation records: every Table 8 combo's four streams at the
// test scale and the default seed, built as Evaluate's jobs build them,
// first 500k instructions each. The recording is what a sweep's in-flight
// cells hold, so its density sets the evaluation's peak memory.
//
// The three-mode PC encoding measures 1.434 B/instr here. The encoding
// before it, which spent a 9-10-byte varint on every PC that was not
// previous+4 (branch sites carry the stream seed in their high bits),
// measured 2.513.
func TestRecordingDensity(t *testing.T) {
	if testing.Short() {
		t.Skip("records 42M instructions")
	}
	const limit = 1.45 // bytes per instruction
	cfg := config.TestScale()
	var instr, bytes int64
	for _, combo := range workloads.Table8() {
		c := cfg
		c.Seed = sweep.JobSeed(cfg.Seed, combo.Name)
		streams, err := cmp.WorkloadStreams(c, combo.Cores, cmp.PhaseRefs(bench.Cycles))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range streams {
			rec := trace.NewRecording(s)
			rec.Record(500_000)
			instr += rec.Len()
			bytes += rec.Bytes()
			rec.Recycle()
		}
	}
	perInstr := float64(bytes) / float64(instr)
	t.Logf("%d instructions in %d bytes (%.3f B/instr)", instr, bytes, perInstr)
	if perInstr > limit {
		t.Errorf("recording uses %.3f B/instr, want at most %.2f", perInstr, limit)
	}
}
