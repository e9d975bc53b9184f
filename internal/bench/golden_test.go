package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/clients"
	"spechint/internal/cluster"
	"spechint/internal/core"
	"spechint/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the bench/golden canonical files, and EXPERIMENTS.md's canon fences from bench/paper")

// goldenDir is the committed canon, relative to this package's directory.
const goldenDir = "../../bench/golden"

func goldenModes() []core.Mode {
	return []core.Mode{core.ModeNoHint, core.ModeSpeculating, core.ModeManual, core.ModeStatic}
}

// TestCellLedger holds every configuration the harness simulates to one
// sorted text file, bench/golden/cells.txt: one row per distinct cell key,
// with its elapsed cycles, the six stall buckets, its read, hint, restart and
// speculation counts, its exit code, and the SHA-256 of its full RunStats as
// indented JSON (every counter, read-site map and the program output). The
// rows are every cell the registry runs at test scale, every (app, mode) cell
// at sweep scale, and the three speculating sweep-scale Gnuld runs whose
// restarts take a path the default cells never do: the second processor's
// restart windows and the two §5 limiters on one disk. Every row also holds
// the stall-attribution invariant (checkBuckets). A change to the
// simulator shows up as the rows it moves; run `go test ./internal/bench -run
// CellLedger -update` to re-canonize on purpose and let review see them.
func TestCellLedger(t *testing.T) {
	resetCells()
	t.Cleanup(resetCells)
	for _, name := range Names() {
		if _, err := RunByName(name, apps.TestScale()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	var sweep []Cell
	for _, app := range append(append([]apps.App{}, Apps...), ModernApps...) {
		for _, mode := range goldenModes() {
			sweep = append(sweep, Cell{App: app, Mode: mode})
		}
	}
	sweep = append(sweep,
		Cell{App: apps.Gnuld, Mode: core.ModeSpeculating, DualCPU: true},
		Cell{App: apps.Gnuld, Mode: core.ModeSpeculating, Disks: 1, Limiter: FixedLimiter},
		Cell{App: apps.Gnuld, Mode: core.ModeSpeculating, Disks: 1, Limiter: AdaptiveLimiter})
	for i := range sweep {
		sweep[i].Scale = apps.SweepScale()
	}
	if _, err := runCells(sweep); err != nil {
		t.Fatal(err)
	}

	keys := map[string]Cell{}
	var rows []string
	cellKeys.Range(func(k, _ any) bool {
		c := k.(Cell)
		key := ledgerKey(c)
		if prev, dup := keys[key]; dup {
			t.Errorf("cells %+v and %+v both render as %q", prev, c, key)
		}
		keys[key] = c
		st, err := c.Run()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		out, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		checkBuckets(t, key, st)
		b := st.Buckets
		rows = append(rows, fmt.Sprintf("%s: elapsed=%d compute=%d spec=%d hinted=%d unhinted=%d fault=%d sched=%d"+
			" reads=%d hinted_reads=%d hint_calls=%d restarts=%d spec_instrs=%d exit=%d sha256=%x\n",
			key, st.Elapsed, b.Compute, b.SpecOverhead, b.HintedStall, b.UnhintedStall, b.FaultStall, b.SchedWait,
			st.ReadCalls, st.HintedReads, st.Tip.HintCalls, st.Restarts, st.SpecInstrs, st.ExitCode,
			sha256.Sum256(append(out, '\n'))))
		return true
	})
	sort.Strings(rows)
	checkGolden(t, filepath.Join(goldenDir, "cells.txt"), []byte(strings.Join(rows, "")))
}

// checkBuckets holds one cell to the stall-attribution invariant: the six
// buckets account for every elapsed cycle exactly, none is negative, and
// Compute is positive. Without a speculating thread SchedWait and
// SpecOverhead are exactly zero. With one, SpecOverhead is positive and
// SchedWait is a tiny residual: a speculative slice can overshoot the
// wake-up event by at most the cost of its final instruction.
func checkBuckets(t *testing.T, key string, st *core.RunStats) {
	t.Helper()
	b := st.Buckets
	if b.Total() != int64(st.Elapsed) {
		t.Errorf("%s: buckets sum to %d, elapsed %d: %+v", key, b.Total(), st.Elapsed, b)
	}
	if min(b.Compute, b.SpecOverhead, b.HintedStall, b.UnhintedStall, b.FaultStall) < 0 || b.Compute == 0 {
		t.Errorf("%s: a negative bucket or no compute: %+v", key, b)
	}
	if st.Mode != core.ModeSpeculating {
		if b.SchedWait != 0 || b.SpecOverhead != 0 {
			t.Errorf("%s: SchedWait %d and SpecOverhead %d without speculation, want 0", key, b.SchedWait, b.SpecOverhead)
		}
	} else if b.SpecOverhead == 0 || b.SchedWait < 0 || b.SchedWait*1000 > int64(st.Elapsed) {
		t.Errorf("%s: SpecOverhead %d, SchedWait %d of %d elapsed; want overhead and a tiny SchedWait residual",
			key, b.SpecOverhead, b.SchedWait, st.Elapsed)
	}
}

// ledgerKey renders a cell key as stable text: app, mode and scale, the
// Postgres selectivity, then each knob the key does not leave at its default.
func ledgerKey(c Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s", strings.ToLower(c.App.String()), c.Mode, c.Scale.Name)
	if c.App == apps.Postgres {
		fmt.Fprintf(&b, " selectivity=%d", c.Scale.Postgres.Selectivity)
	}
	for _, knob := range []struct {
		name string
		v    int
	}{{"disks", c.Disks}, {"cache_mb", c.CacheMB}, {"speed_ratio", c.SpeedRatio}, {"cow_region", c.COWRegion}} {
		if knob.v != 0 {
			fmt.Fprintf(&b, " %s=%d", knob.name, knob.v)
		}
	}
	if c.IgnoreHints {
		b.WriteString(" ignore_hints")
	}
	if c.Limiter != NoLimiter {
		b.WriteString(map[Limiter]string{FixedLimiter: " fixed_limiter", AdaptiveLimiter: " adaptive_limiter"}[c.Limiter])
	}
	if c.DualCPU {
		b.WriteString(" dual_cpu")
	}
	if c.FaultRate != 0 {
		fmt.Fprintf(&b, " fault_rate=%g", c.FaultRate)
	}
	return b.String()
}

// TestGoldenMulti byte-compares the test-scale multiprogramming sweep (groups
// of 1..8 in both modes, with per-process slowdowns and fairness) against the
// committed canon: the group scheduler, the shared cache and TIP's
// per-client accounting are all under the diff.
func TestGoldenMulti(t *testing.T) {
	rep, err := multiprogramming(apps.TestScale())
	goldenReport(t, "multi_small.json", rep, err)
}

// TestGoldenFaults does the same for the test-scale degradation sweep: the
// seeded injection schedule, TIP's retry/demotion policy and the fault stall
// attribution.
func TestGoldenFaults(t *testing.T) {
	rep, err := faults(apps.TestScale())
	goldenReport(t, "faults_small.json", rep, err)
}

// TestGoldenSynthReports byte-compares the static synthesizer's report for
// the three apps with a provable read site, at test scale: every site's
// class and confidence, the closed forms and the first hints. A change to
// the analysis shows here line by line.
func TestGoldenSynthReports(t *testing.T) {
	for _, app := range []apps.App{apps.Agrep, apps.Gnuld, apps.XDataSlice} {
		b, err := apps.Build(app, apps.TestScale())
		if err != nil {
			t.Fatal(err)
		}
		r, err := Synth(b)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join(goldenDir, "synth_"+strings.ToLower(app.String())+".txt"), []byte(r.String()))
	}
}

// TestQuantumIsSlicingNotBehaviour is the differential wall under the single
// scheduler: for every app and mode, the same inputs run through
// (*System).Run — a group of one whose quantum never slices — and through the
// scheduler as a group of one preempted every 100 000 cycles produce
// identical RunStats: elapsed, all six buckets, every Tip/Cache/Disk counter,
// the output, page reclaims included. For a lone process the quantum only
// cuts slices; it decides nothing. It runs at sweep scale, where runs are
// long enough for pages to go idle past the VM's ReclaimGap (test scale
// under -short).
func TestQuantumIsSlicingNotBehaviour(t *testing.T) {
	scale := apps.SweepScale()
	if testing.Short() {
		scale = apps.TestScale()
	}
	suite := append(append([]apps.App{apps.Postgres}, Apps...), ModernApps...)
	for _, app := range suite {
		for _, mode := range goldenModes() {
			app, mode := app, mode
			t.Run(fmt.Sprintf("%v/%v", app, mode), func(t *testing.T) {
				t.Parallel()
				solo, _, err := Run(app, mode, scale, nil)
				if err != nil {
					t.Fatal(err)
				}
				p, err := prepare(Cell{App: app, Mode: mode, Scale: scale})
				if err != nil {
					t.Fatal(err)
				}
				sys, err := core.New(p.cfg, p.prog, p.b.FS)
				if err != nil {
					t.Fatal(err)
				}
				sliced, err := core.RunGroup([]*core.System{sys}, 100_000, core.DefaultConfig(mode).MaxCycles)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(solo, sliced[0]) {
					t.Errorf("quantum changed the run:\n  solo %+v\nsliced %+v", solo, sliced[0])
				}
			})
		}
	}
}

// checkGolden byte-compares got against the committed canon at path, or
// rewrites the canon under -update so review sees the delta.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverged from the golden run (%d bytes vs %d).\n"+
			"If the change is intentional, re-canonize with:\n"+
			"  go test ./internal/bench -run %s -update\nfirst difference at byte %d",
			path, len(got), len(want), strings.SplitN(t.Name(), "/", 2)[0], firstDiff(got, want))
	}
}

// goldenReport byte-compares a sweep family's encoded report against the
// committed canon at bench/golden/name.
func goldenReport(t *testing.T, name string, rep Report, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Encode(rep)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join(goldenDir, name), got)
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestGoldenTraces pins event *order*, which the cell ledger (counts) does
// not: the SHA-256 of the cross-layer Chrome trace of five test-scale runs —
// the bytes `tipbench -trace-json` writes for speculating Gnuld, Agrep and
// XDataSlice and for the four-process multi group, plus one hinted two-shard
// cluster run. Every hint, prefetch, evict, consume and disk span is under
// the hash, in order; the file is sha256sum(1) format.
func TestGoldenTraces(t *testing.T) {
	scale := apps.TestScale()
	runs := []struct {
		name string
		run  func() (*obs.Trace, error)
	}{
		{"gnuld_speculating", soloTrace(apps.Gnuld, scale)},
		{"agrep_speculating", soloTrace(apps.Agrep, scale)},
		{"xdataslice_speculating", soloTrace(apps.XDataSlice, scale)},
		{"multi4_speculating", func() (*obs.Trace, error) {
			tr, _, err := TraceMulti(scale, 4)
			return tr, err
		}},
		{"cluster2_hinted", func() (*obs.Trace, error) {
			pop, err := clients.Generate(clusterPopulation(scale, clusterLoads[1].arrivalMean))
			if err != nil {
				return nil, err
			}
			cfg := cluster.DefaultConfig(2)
			cfg.Obs = obs.New(obs.Config{})
			cl, err := cluster.New(cfg, pop)
			if err != nil {
				return nil, err
			}
			_, err = cl.Run()
			return cfg.Obs, err
		}},
	}
	var got bytes.Buffer
	for _, r := range runs {
		tr, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		out, err := tr.ChromeTraceJSON()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(append(out, '\n')), r.name)
	}
	checkGolden(t, filepath.Join(goldenDir, "traces.sha256"), got.Bytes())
}

func soloTrace(app apps.App, scale apps.Scale) func() (*obs.Trace, error) {
	return func() (*obs.Trace, error) {
		tr, _, err := TraceRun(app, core.ModeSpeculating, scale)
		return tr, err
	}
}
