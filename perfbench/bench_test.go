package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"snug/internal/bench"
	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/isa"
	"snug/internal/schemes"
	"snug/internal/sweep"
)

// outcome is one workload's untraced sample and traced run.
type outcome struct {
	untraced, traced sample
	tot              *totals
	metrics          map[string]metric
}

var (
	fixMu    sync.Mutex
	fixtures = map[string]*outcome{}
)

// fixture runs a workload once per test binary: fig9 narrowed to class C1
// (27 jobs) and live4 as benchmarked, both at the default seed.
func fixture(t *testing.T, name string) *outcome {
	t.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if o := fixtures[name]; o != nil {
		return o
	}
	var w workload
	var err error
	switch name {
	case "fig9":
		w, err = newFig9(defaultSeed, fig9Options{classes: []string{"C1"}, dir: t.TempDir()})
	default:
		w, err = newWorkload(name, defaultSeed)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	o := &outcome{}
	if o.untraced, err = timed(w.run); err != nil {
		t.Fatal(err)
	}
	if o.tot, o.traced, err = w.traced(); err != nil {
		t.Fatal(err)
	}
	o.metrics = o.tot.metrics(o.untraced.wall)
	fixtures[name] = o
	return o
}

func value(t *testing.T, o *outcome, name string) float64 {
	t.Helper()
	m, ok := o.metrics[name]
	if !ok {
		t.Fatalf("metric %s missing", name)
	}
	return m.Value
}

func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, name := range workloadNames {
		o := fixture(t, name)
		if o.untraced.digest == "" || o.traced.digest != o.untraced.digest {
			t.Errorf("%s: traced digest %q, untraced %q", name, o.traced.digest, o.untraced.digest)
		}
		if o.untraced.failed != 0 || o.traced.failed != 0 || o.tot.isoErr != nil {
			t.Errorf("%s: failed ops untraced=%d traced=%d, isolated replay: %v",
				name, o.untraced.failed, o.traced.failed, o.tot.isoErr)
		}
	}
}

func TestPinnedDigest(t *testing.T) {
	if got := fixture(t, "live4").untraced.digest; got != "fb8ac38b40b7bdf7" {
		t.Errorf("live4 digest %s, want the golden fb8ac38b40b7bdf7", got)
	}
}

// liveTrace runs live4's simulation under a TIMED controller that logs
// every call, returning the traced simulation and the call log.
func liveTrace(t *testing.T) (config.System, simTrace, []ctrlCall) {
	t.Helper()
	cfg := config.TestScale()
	gens, err := cmp.WorkloadStreams(cfg, bench.MixBench, cmp.PhaseRefs(benchCycles))
	if err != nil {
		t.Fatal(err)
	}
	var calls []ctrlCall
	st := simTrace{family: "SNUG", quantum: cfg.Quantum, probe: &ctrlProbe{inner: "SNUG", log: &calls}}
	spec, release := withProbe(st.probe)
	defer release()
	if st.res, err = cmp.RunStreams(cfg, spec, gens, benchCycles); err != nil {
		t.Fatal(err)
	}
	for range gens {
		st.consumed = append(st.consumed, 1<<40) // generators are endless
	}
	return cfg, st, calls
}

func openLive(cfg config.System) func(core int) (isa.Stream, error) {
	return func(core int) (isa.Stream, error) {
		gens, err := cmp.WorkloadStreams(cfg, bench.MixBench, cmp.PhaseRefs(benchCycles))
		if err != nil {
			return nil, err
		}
		return gens[core], nil
	}
}

// TestIsolatedReplaysReproduce checks that the isolated L1 and core
// replays reproduce the traced run's counters, and that they notice when
// their input is not the traced run's.
func TestIsolatedReplaysReproduce(t *testing.T) {
	cfg, st, _ := liveTrace(t)
	if digestOne(st.res) != live4Digest {
		t.Fatalf("TIMED controller changed the results: digest %s", digestOne(st.res))
	}
	if _, err := isolate(cfg, benchCycles, st, openLive(cfg)); err != nil {
		t.Fatal(err)
	}
	swapped := func(core int) (isa.Stream, error) { return openLive(cfg)((core + 1) % cfg.Cores) }
	if _, err := isolate(cfg, benchCycles, st, swapped); err == nil || !strings.Contains(err.Error(), "L1") {
		t.Errorf("isolated replay of the wrong streams: err = %v, want an L1 mismatch", err)
	}
	bad := st
	bad.probe = &ctrlProbe{done: make([][]int64, len(st.probe.done))}
	for i, d := range st.probe.done {
		bad.probe.done[i] = append([]int64(nil), d...)
		bad.probe.done[i][0] += 1000
	}
	if _, err := isolate(cfg, benchCycles, bad, openLive(cfg)); err == nil || !strings.Contains(err.Error(), "core replay diverged") {
		t.Errorf("isolated replay with altered completions: err = %v, want divergence", err)
	}
}

// TestIsolatedControllerReplay replays the logged Access/WritebackL1/Tick
// sequence into a fresh controller: it must return the recorded completion
// cycles and end with the same report.
func TestIsolatedControllerReplay(t *testing.T) {
	cfg, st, calls := liveTrace(t)
	ctrl, err := schemes.Build("SNUG", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var accesses int
	for i, c := range calls {
		switch c.kind {
		case 'A':
			accesses++
			if got := ctrl.Access(c.core, c.now, c.a, c.write); got != c.done {
				t.Fatalf("call %d: Access returned %d, traced run %d", i, got, c.done)
			}
		case 'W':
			ctrl.WritebackL1(c.core, c.now, c.a)
		case 'T':
			ctrl.Tick(c.now)
		}
	}
	if accesses == 0 || int64(len(calls)) != st.probe.calls+st.probe.ticks {
		t.Fatalf("logged %d calls (%d accesses), probe counted %d", len(calls), accesses, st.probe.calls+st.probe.ticks)
	}
	if got, want := fmt.Sprintf("%+v", ctrl.Report()), fmt.Sprintf("%+v", st.res.Report); got != want {
		t.Errorf("replayed report differs from the traced run's")
	}
}

// TestLedger checks what the ledger does not give by construction: its
// layers sum to RunStreams time because cmp.self_s is the remainder, so
// check must reject a layer measured wrongly. On the real workloads check
// is a timing check that host noise can trip (live4's cmp.self_s is about
// as large as that noise), so there its finding is only logged.
func TestLedger(t *testing.T) {
	for _, name := range workloadNames {
		if err := fixture(t, name).tot.check(); err != nil {
			t.Logf("%s: ledger warning: %v", name, err)
		}
	}
	// 100 ms in RunStreams: 20 decoding, 70 in the core, 5 in the L1, which
	// leaves cmp.self_s 5 ms; 1 ms of worker time falls outside RunStreams.
	ledger := func(cpuMs, workerMs int64) error {
		tot := newTotals(1)
		tot.runNs, tot.streamNs, tot.decodeSpanNs = 100e6, 20e6, 20e6
		tot.l1Ns, tot.cpuNs, tot.workerNs = 5e6, cpuMs*1e6, workerMs*1e6
		return tot.check()
	}
	if err := ledger(70, 101); err != nil {
		t.Errorf("consistent ledger rejected: %v", err)
	}
	for _, c := range []struct {
		cpuMs, workerMs int64
		want            string
	}{
		{80, 101, "negative"},   // cpu.self_s over-counted
		{40, 101, "unmeasured"}, // cpu.self_s under-counted
		{70, 120, "residual_s"}, // time outside RunStreams unaccounted
	} {
		if err := ledger(c.cpuMs, c.workerMs); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("cpu %d ms, worker %d ms: err = %v, want %q", c.cpuMs, c.workerMs, err, c.want)
		}
	}
}

func TestBypass(t *testing.T) {
	// live4 reads its generators instruction by instruction: the streams
	// RunWorkload builds must not offer the batch path replays use.
	gens, err := cmp.WorkloadStreams(config.TestScale(), bench.MixBench, cmp.PhaseRefs(benchCycles))
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range gens {
		if _, ok := g.(isa.BatchStream); ok {
			t.Errorf("live4 core %d: stream %T is an isa.BatchStream, so live4 no longer takes the per-instruction path", i, g)
		}
	}
	fig := fixture(t, "fig9")
	for _, m := range []string{"sweep.job_s", "sweep.put_s", "trace.record_s", "trace.decode_instr"} {
		if value(t, fig, m) <= 0 {
			t.Errorf("fig9: %s = %v, want > 0", m, value(t, fig, m))
		}
	}
	for _, f := range coopFamilies {
		for _, m := range []string{".spills", ".retrieval_hits"} {
			if v := value(t, fig, famPrefix[f]+m); v <= 0 {
				t.Errorf("fig9: %s%s = %v, want > 0", famPrefix[f], m, v)
			}
		}
	}
}

// TestCheckpointCheck checks that fig9's checkpoint check notices a store
// that lacks a result or holds a different one.
func TestCheckpointCheck(t *testing.T) {
	runs := map[string]cmp.RunResult{"c/L2P": {Cycles: 1}, "c/SNUG": {Cycles: 2}}
	path := filepath.Join(t.TempDir(), "c.sweep.json")
	put := func(key string, r cmp.RunResult) {
		st, err := sweep.OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(key, r); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	put("c/L2P", runs["c/L2P"])
	if _, err := storedDigest(path, runs); err == nil {
		t.Error("store missing c/SNUG accepted")
	}
	put("c/SNUG", cmp.RunResult{Cycles: 3})
	if got, err := storedDigest(path, runs); err != nil || got == digestRuns(runs) {
		t.Errorf("store with an altered c/SNUG: digest %s, err %v; want a different digest", got, err)
	}
}

// TestResultLine runs the command end to end and checks the last line is
// the result object with every end-to-end metric.
func TestResultLine(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"--workload", "live4", "--seconds", "0", "--trace", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok || len(res) != 4 {
			t.Fatalf("result keys %v, want exactly correct, attempted, failed, metrics", res)
		}
	}
	var ms map[string]metric
	if err := json.Unmarshal(res["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"wall_s", "cpu_s", "setup_s", "sim_cycles_per_s", "sim_instr_per_s", "peak_rss_mb", "heap_allocs"} {
		if ms[m].Value <= 0 || ms[m].Unit == "" {
			t.Errorf("%s = %+v, want a positive value with a unit", m, ms[m])
		}
	}
	if string(res["correct"]) != "true" || string(res["failed"]) != "0" {
		t.Errorf("correct=%s failed=%s", res["correct"], res["failed"])
	}
	if err := run([]string{"--workload", "nope"}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
}
