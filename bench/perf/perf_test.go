package main

import (
	"encoding/json"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

// The tests run every workload at test scale, so the whole file stays within
// a few seconds; full-scale numbers are the benchmark's business, not theirs.

const registryPath = "../../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func mustRegistry(t *testing.T) *registry {
	t.Helper()
	reg, err := loadRegistry(registryPath)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestRegistry holds BENCHMARK.json to the benchmark contract's limits and to
// the workloads this program defines.
func TestRegistry(t *testing.T) {
	reg := mustRegistry(t)
	if !reflect.DeepEqual(reg.Paths, []string{"bench/perf"}) {
		t.Errorf("paths = %v, want [bench/perf]", reg.Paths)
	}
	if reg.RunSeconds < 1 || reg.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", reg.RunSeconds)
	}
	if n := len(reg.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(reg.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(reg.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	if len(reg.Workloads) != len(workloads) {
		t.Fatalf("registry names %d workloads, the program defines %d", len(reg.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range reg.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: registry has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad or repeated name, or why over 200 characters", w.Name)
		}
		seen[w.Name] = true
	}

	setup := false
	for _, d := range reg.EndToEnd {
		if d.Bound == nil || *d.Bound < 0 || *d.Bound > 0.25 {
			t.Errorf("%s: end-to-end bound %v, want 0..0.25", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no end-to-end setup_s in s, lower is better")
	}
	for _, d := range append(append([]metricDef{}, reg.EndToEnd...), reg.PerLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric %q: bad or repeated name", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range reg.PerLayer {
		if d.Bound != nil {
			t.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
}

// exact runs one test-scale repetition of w and returns every metric that is
// a pure function of the seed, rendered as JSON.
func exact(t *testing.T, w *workload, seed int64) string {
	t.Helper()
	p := w.plan(seed, true)
	r := runRep(p, nil, nil)
	r.verify(p)
	if err := firstErr(r.errs); err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	m := metrics{}
	virtMetrics(m, p, r.outs)
	layerCounts(m, p, r.outs)
	if err := checkBuckets(m); err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestExactMetricsRepeat: simulated time and every count are byte-identical
// run to run and move with the seed.
func TestExactMetricsRepeat(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := exact(t, w, 1), exact(t, w, 1), exact(t, w, 2)
		if a != b {
			t.Errorf("%s: two runs of seed 1 differ:\n%s\n%s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seed 2 produced seed 1's metrics", w.name)
		}
	}
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestMetricsMatchRegistry runs both kinds of run on every workload and
// checks that what they report is exactly what BENCHMARK.json lists: report.fill
// rejects unknown names, and here every listed name must have been measured
// by at least one workload, every end-to-end name by all of them.
func TestMetricsMatchRegistry(t *testing.T) {
	reg := mustRegistry(t)
	o := options{seed: 1, seconds: 0.001, outDir: t.TempDir(), setupPasses: 1, minReps: 1}
	measured := map[string]bool{}
	micro := metrics{}
	if err := microDrives(micro, true); err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]

		rep := &report{Workload: w.name, defs: reg.EndToEnd}
		m, err := runTimed(w, o, rep, true)
		if err != nil {
			t.Fatalf("%s timed: %v", w.name, err)
		}
		if err := rep.fill(m, true); err != nil {
			t.Errorf("%s timed: %v", w.name, err)
		}
		if rep.Failed != 0 || !rep.Correct || rep.Attempted == 0 {
			t.Errorf("%s timed: attempted %d, failed %d, correct %v: %v", w.name, rep.Attempted, rep.Failed, rep.Correct, rep.Failures)
		}

		rep = &report{Workload: w.name, defs: reg.PerLayer}
		m, err = runTraced(w, o, rep, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for name, v := range micro {
			m[name] = v
		}
		if err := rep.fill(m, false); err != nil {
			t.Errorf("%s traced: %v", w.name, err)
		}
		if rep.Failed != 0 {
			t.Errorf("%s traced: %d cells failed: %v", w.name, rep.Failed, rep.Failures)
		}
		for name := range m {
			measured[name] = true
		}
		if want := map[string]float64{"sweep_disks": 3, "replay_modern": 3, "multi_mix": 4}[w.name]; m["par.cache_builds"] != want {
			t.Errorf("%s: par.cache_builds = %v, want %v", w.name, m["par.cache_builds"], want)
		}
		if w.name == "cluster_overload" {
			if m["vm.minstr_per_s"] != 0 || m["cluster.hint_wall_ratio_x"] == 0 {
				t.Errorf("cluster_overload: vm.minstr_per_s = %v (want 0), cluster.hint_wall_ratio_x = %v (want > 0)",
					m["vm.minstr_per_s"], m["cluster.hint_wall_ratio_x"])
			}
		}
	}
	for _, name := range names(reg.PerLayer) {
		if !measured[name] {
			t.Errorf("per-layer metric %s is in BENCHMARK.json but no workload measures it", name)
		}
	}
}

// TestSelfTimes: self times of a nested trace sum to the root span.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	endRoot := tr.begin("root")
	endCell := tr.inCell("c1")
	tr.begin("left open")
	endCell() // closes the dangling span too
	tr.begin("a")()
	endRoot()
	if len(tr.open) != 0 {
		t.Fatalf("%d spans still open", len(tr.open))
	}
	var sum float64
	for _, d := range tr.selfTimes() {
		sum += d.Seconds()
	}
	if root := tr.seconds("root"); sum < root*0.999999 || sum > root*1.000001 {
		t.Errorf("self times sum to %v, root span is %v", sum, root)
	}
	if tr.spans[2].Cell != "c1" || tr.spans[2].Parent != 1 {
		t.Errorf("span inside the cell: %+v", tr.spans[2])
	}
}

// TestQuietGate: no gate and a gate without allowance let a cell through at
// once, whatever the core's sibling is doing.
func TestQuietGate(t *testing.T) {
	var none *quietGate
	none.wait()
	g := newQuietGate(0)
	if g.best <= 0 {
		t.Fatalf("quiet level %v after calibration", g.best)
	}
	start := time.Now()
	for i := 0; i < 3; i++ {
		g.wait()
	}
	if d := time.Since(start); d > time.Second || g.waited != 0 {
		t.Errorf("three waits without allowance took %v and counted %v of waiting", d, g.waited)
	}
}
