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

func goldenPath(app apps.App, mode core.Mode) string {
	name := fmt.Sprintf("%s_%s.json", strings.ToLower(app.String()), mode.String())
	return filepath.Join(goldenDir, name)
}

// goldenStats renders one cell's full RunStats as indented JSON — every
// counter, stall bucket, read-site map and the program output itself.
// Elapsed wall time is virtual (cycles), so the bytes are reproducible on
// any host.
func goldenStats(t *testing.T, app apps.App, mode core.Mode) []byte {
	t.Helper()
	st, _, err := Run(app, mode, apps.SweepScale(), nil)
	if err != nil {
		t.Fatalf("%v %v: %v", app, mode, err)
	}
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestGoldenRunStats byte-compares every (app, mode) cell at sweep scale
// against the committed canon in bench/golden. Any behavioral change to the
// simulator — event ordering, cost model, cache policy, prefetch depth —
// shows up here as a diff; run `go test ./internal/bench -run Golden
// -update` to re-canonize on purpose and let review see the delta.
func TestGoldenRunStats(t *testing.T) {
	suite := append(append([]apps.App{}, Apps...), ModernApps...)
	for _, app := range suite {
		for _, mode := range goldenModes() {
			app, mode := app, mode
			t.Run(fmt.Sprintf("%v/%v", app, mode), func(t *testing.T) {
				got := goldenStats(t, app, mode)
				checkGolden(t, goldenPath(app, mode), got)
			})
		}
	}
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

// TestGoldenTraces pins event *order*, which the RunStats canon (counts) does
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
