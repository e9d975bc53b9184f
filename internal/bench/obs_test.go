package bench

import (
	"testing"

	"spechint/internal/apps"
	"spechint/internal/core"
	"spechint/internal/multi"
	"spechint/internal/obs"
)

var allModes = []core.Mode{core.ModeNoHint, core.ModeSpeculating, core.ModeManual}

// TestHintedBucketTracksHintedReads: in speculating mode the hinted-stall
// bucket must be populated exactly when hinted blocking reads occurred.
func TestHintedBucketTracksHintedReads(t *testing.T) {
	st, _, err := Run(apps.Agrep, core.ModeSpeculating, apps.TestScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.HintedReads > 0 && st.Buckets.HintedStall == 0 && st.Buckets.UnhintedStall == 0 {
		// Hinted reads that all hit the cache stall zero cycles; only flag the
		// combination that cannot happen (reads hinted, no stall anywhere, yet
		// elapsed exceeds busy).
		if int64(st.Elapsed) > st.OrigBusy {
			t.Fatalf("elapsed %d > busy %d with empty stall buckets: %+v",
				st.Elapsed, st.OrigBusy, st.Buckets)
		}
	}
	orig, _, err := Run(apps.Agrep, core.ModeNoHint, apps.TestScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Buckets.HintedStall != 0 {
		t.Fatalf("unhinted run charged %d hinted-stall cycles", orig.Buckets.HintedStall)
	}
	if orig.Buckets.UnhintedStall == 0 {
		t.Fatal("original run has zero unhinted stall — it must block on the disks")
	}
}

// TestTracingIsFree is the determinism contract: enabling the full
// observability stream (events + gauges) must not change a single cycle of
// any run, in any app or mode.
func TestTracingIsFree(t *testing.T) {
	for _, app := range Apps {
		for _, mode := range allModes {
			plain, _, err := Run(app, mode, apps.TestScale(), nil)
			if err != nil {
				t.Fatalf("%v %v: %v", app, mode, err)
			}
			tr := obs.New(obs.Config{SampleInterval: 100_000}) // sample aggressively
			traced, _, err := Run(app, mode, apps.TestScale(), func(c *core.Config) { c.Obs = tr })
			if err != nil {
				t.Fatalf("%v %v traced: %v", app, mode, err)
			}
			if plain.Elapsed != traced.Elapsed {
				t.Errorf("%v %v: tracing changed elapsed %d -> %d",
					app, mode, plain.Elapsed, traced.Elapsed)
			}
			if plain.Output != traced.Output {
				t.Errorf("%v %v: tracing changed program output", app, mode)
			}
			if plain.OrigInstrs != traced.OrigInstrs || plain.Restarts != traced.Restarts {
				t.Errorf("%v %v: tracing changed execution (instrs %d->%d, restarts %d->%d)",
					app, mode, plain.OrigInstrs, traced.OrigInstrs, plain.Restarts, traced.Restarts)
			}
			if len(tr.Events()) == 0 {
				t.Errorf("%v %v: traced run recorded no events", app, mode)
			}
			if len(tr.Points()) == 0 {
				t.Errorf("%v %v: traced run sampled no metrics", app, mode)
			}
		}
	}
}

// TestTraceRunExports drives the tipbench -trace-json backend end to end:
// both exporters must produce non-trivial documents from a real run.
func TestTraceRunExports(t *testing.T) {
	tr, st, err := TraceRun(apps.Gnuld, core.ModeSpeculating, apps.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if st.Buckets.Total() != int64(st.Elapsed) {
		t.Fatalf("buckets %d != elapsed %d", st.Buckets.Total(), st.Elapsed)
	}
	chrome, err := tr.ChromeTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := tr.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(chrome) < 100 || len(metrics) < 100 {
		t.Fatalf("suspiciously small exports: chrome %d bytes, metrics %d bytes", len(chrome), len(metrics))
	}
	// The cross-layer contract: every layer's lane shows up in one run.
	lanes := map[string]bool{}
	for _, e := range tr.Events() {
		lanes[e.Lane] = true
	}
	for _, want := range []string{"tip", "cache", "disk0", "app"} {
		if !lanes[want] {
			t.Errorf("lane %q missing from solo trace (have %v)", want, lanes)
		}
	}
}

// TestTracingIsFreeMulti extends the determinism contract to the shared
// substrate: a traced speculating group must match an untraced one cycle for
// cycle, and every process must have its own lane.
func TestTracingIsFreeMulti(t *testing.T) {
	run := func(tr *obs.Trace) *multi.Result {
		cfg := multi.DefaultConfig()
		cfg.Obs = tr
		g, err := multi.NewGroup(cfg, apps.TestScale(), multiSpecs(3, core.ModeSpeculating))
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	tr := obs.New(obs.Config{})
	traced := run(tr)

	if plain.Makespan != traced.Makespan {
		t.Fatalf("tracing changed makespan %d -> %d", plain.Makespan, traced.Makespan)
	}
	for i := range plain.Procs {
		p, q := plain.Procs[i], traced.Procs[i]
		if p.Stats.Elapsed != q.Stats.Elapsed || p.Stats.Output != q.Stats.Output {
			t.Errorf("tracing changed %s: elapsed %d -> %d", p.Name, p.Stats.Elapsed, q.Stats.Elapsed)
		}
	}

	lanes := map[string]bool{}
	for _, e := range tr.Events() {
		lanes[e.Lane] = true
	}
	for _, p := range traced.Procs {
		if !lanes[p.Name] {
			t.Errorf("process lane %q missing from group trace", p.Name)
		}
	}

	// Under multiprogramming SchedWait is real CPU queueing, but the sum
	// invariant still holds exactly for every process.
	for _, p := range traced.Procs {
		if p.Stats.Buckets.Total() != int64(p.Stats.Elapsed) {
			t.Errorf("%s: buckets %d != elapsed %d", p.Name, p.Stats.Buckets.Total(), p.Stats.Elapsed)
		}
		if p.Stats.Buckets.SchedWait < 0 {
			t.Errorf("%s: negative SchedWait %d", p.Name, p.Stats.Buckets.SchedWait)
		}
	}
}
