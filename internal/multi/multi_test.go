package multi

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"spechint/internal/apps"
	"spechint/internal/core"
	"spechint/internal/fault"
	"spechint/internal/fsim"
	"spechint/internal/workload"
)

// mixedSpecs is the standard mixed workload: one process per application.
func mixedSpecs(n int, mode core.Mode) []ProcSpec {
	mix := []apps.App{apps.Agrep, apps.XDataSlice, apps.Postgres, apps.Gnuld}
	specs := make([]ProcSpec, n)
	for i := range specs {
		specs[i] = ProcSpec{App: mix[i%len(mix)], Mode: mode}
	}
	return specs
}

func runGroup(t *testing.T, cfg Config, specs []ProcSpec) *Result {
	t.Helper()
	g, err := NewGroup(cfg, apps.TestScale(), specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGroupDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	specs := mixedSpecs(3, core.ModeSpeculating)
	a := runGroup(t, cfg, specs)
	b := runGroup(t, cfg, specs)

	if a.Makespan != b.Makespan {
		t.Fatalf("makespan differs across identical runs: %d vs %d", a.Makespan, b.Makespan)
	}
	if a.Disk != b.Disk {
		t.Errorf("disk stats differ: %+v vs %+v", a.Disk, b.Disk)
	}
	if a.Tip != b.Tip {
		t.Errorf("tip stats differ: %+v vs %+v", a.Tip, b.Tip)
	}
	for i := range a.Procs {
		sa, sb := a.Procs[i].Stats, b.Procs[i].Stats
		if sa.Elapsed != sb.Elapsed || sa.ReadCalls != sb.ReadCalls || sa.Restarts != sb.Restarts {
			t.Errorf("proc %d differs: elapsed %d/%d reads %d/%d restarts %d/%d",
				i, sa.Elapsed, sb.Elapsed, sa.ReadCalls, sb.ReadCalls, sa.Restarts, sb.Restarts)
		}
	}
}

// TestSpeculationBeatsOriginalAtN4 is the ISSUE's acceptance run: a 4-process
// mixed workload on the 12 MB shared cache. The speculating builds must
// finish sooner in aggregate than the originals, and no process's hinted
// blocks may be evicted by another process's unhinted LRU traffic.
func TestSpeculationBeatsOriginalAtN4(t *testing.T) {
	cfg := DefaultConfig() // testbed: 4 disks, 12 MB cache
	orig := runGroup(t, cfg, mixedSpecs(4, core.ModeNoHint))
	spec := runGroup(t, cfg, mixedSpecs(4, core.ModeSpeculating))

	var origAgg, specAgg int64
	for i := range orig.Procs {
		origAgg += int64(orig.Procs[i].Stats.Elapsed)
		specAgg += int64(spec.Procs[i].Stats.Elapsed)
	}
	if specAgg >= origAgg {
		t.Errorf("aggregate elapsed: speculating %d >= original %d", specAgg, origAgg)
	}
	if spec.Makespan >= orig.Makespan {
		t.Errorf("makespan: speculating %d >= original %d", spec.Makespan, orig.Makespan)
	}

	// The isolation contract, across both runs: unhinted traffic never took
	// another process's hinted block.
	if n := orig.Cache.UnhintedCrossEvicts; n != 0 {
		t.Errorf("original run: %d unhinted cross-owner evictions", n)
	}
	if n := spec.Cache.UnhintedCrossEvicts; n != 0 {
		t.Errorf("speculating run: %d unhinted cross-owner evictions", n)
	}

	// Sanity: the speculating run actually speculated.
	var restarts, hints int64
	for _, p := range spec.Procs {
		restarts += p.Stats.Restarts
		hints += p.Stats.Tip.HintCalls
	}
	if hints == 0 {
		t.Error("speculating group issued no hints")
	}
	_ = restarts
}

func TestGroupOutputsMatchSolo(t *testing.T) {
	// Each process of a group must compute the same answer it computes when
	// run alone (same prefix and seeds via FirstProcIndex) — and a group of
	// one, time-sliced every quantum cycles, must BE the solo run: the same
	// inputs through core.New(...).Run(), whose quantum never slices, yield
	// identical statistics down to the last bucket and counter.
	cfg := DefaultConfig()
	group := runGroup(t, cfg, mixedSpecs(2, core.ModeSpeculating))
	for i, p := range group.Procs {
		solo := cfg
		solo.FirstProcIndex = i
		sres := runGroup(t, solo, []ProcSpec{{App: p.App, Mode: core.ModeSpeculating}})
		if sres.Procs[0].Stats.Output != p.Stats.Output {
			t.Errorf("p%d (%v) output differs between group and solo run", i, p.App)
		}
		if sres.Procs[0].Stats.ExitCode != p.Stats.ExitCode {
			t.Errorf("p%d (%v) exit code differs: solo %d group %d",
				i, p.App, sres.Procs[0].Stats.ExitCode, p.Stats.ExitCode)
		}

		fs := fsim.New(cfg.Disk.BlockSize)
		workload.SetBenchLayout(fs)
		b, err := apps.BuildOn(fs, p.App, apps.TestScale().WithProcess(i, seedStep))
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.New(core.DefaultConfig(core.ModeSpeculating), b.Transformed, fs)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(alone, sres.Procs[0].Stats) {
			t.Errorf("p%d (%v): a group of one is not the solo run:\n solo %+v\ngroup %+v",
				i, p.App, alone, sres.Procs[0].Stats)
		}
	}
}

// TestGroupDeadlineAndStatsOwnership: a group that outruns MaxCycles fails
// with core.ErrDeadline like any other run, and a finished group's per-process
// statistics are detached copies — holding the Result keeps no Group alive.
func TestGroupDeadlineAndStatsOwnership(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 1000
	g, err := NewGroup(cfg, apps.TestScale(), mixedSpecs(3, core.ModeSpeculating))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("err = %v, want core.ErrDeadline", err)
	}

	freed := make(chan struct{})
	res := func() *Result {
		g, err := NewGroup(DefaultConfig(), apps.TestScale(), mixedSpecs(2, core.ModeNoHint))
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(g, func(*Group) { close(freed) })
		res, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	for deadline := time.After(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-freed:
			if res.Procs[1].Stats.ReadCalls == 0 {
				t.Fatal("stats lost their contents")
			}
			return
		case <-deadline:
			t.Fatal("the Group is still reachable while only its Result is held")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestSlowdownUnderContention(t *testing.T) {
	// Turnaround under contention must not be better than solo (the group
	// shares one CPU), and the group must beat running the procs back to
	// back (otherwise multiprogramming overlapped nothing).
	cfg := DefaultConfig()
	group := runGroup(t, cfg, mixedSpecs(3, core.ModeNoHint))
	var soloSum int64
	for i, p := range group.Procs {
		solo := cfg
		solo.FirstProcIndex = i
		sres := runGroup(t, solo, []ProcSpec{{App: p.App, Mode: core.ModeNoHint}})
		soloT, groupT := sres.Procs[0].Stats.Elapsed, p.Stats.Elapsed
		soloSum += int64(soloT)
		if groupT < soloT {
			t.Errorf("p%d (%v) ran faster under contention: %d < %d", i, p.App, groupT, soloT)
		}
	}
	if int64(group.Makespan) >= soloSum {
		t.Errorf("makespan %d >= serial sum %d: no overlap from multiprogramming", group.Makespan, soloSum)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{2, 2, 2, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal values: %v, want 1", got)
	}
	got := JainIndex([]float64{1, 0, 0, 0})
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("single dominant: %v, want 0.25", got)
	}
	if JainIndex(nil) != 0 {
		t.Error("empty: want 0")
	}
	if JainIndex([]float64{0, 0, 0}) != 0 {
		t.Error("all-zero: want 0 (degenerate, not a divide-by-zero)")
	}
	if got := JainIndex([]float64{5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("single value: %v, want 1", got)
	}
}

func TestNewGroupRejectsEmpty(t *testing.T) {
	if _, err := NewGroup(DefaultConfig(), apps.TestScale(), nil); err == nil {
		t.Fatal("empty process list accepted")
	}
}

// A static-mode process would run the original binary with no hint list while
// every lane and ProcResult.Mode said "static": NewGroup names it and refuses.
func TestNewGroupRejectsStaticMode(t *testing.T) {
	specs := []ProcSpec{{App: apps.Agrep, Mode: core.ModeNoHint}, {App: apps.Gnuld, Mode: core.ModeStatic}}
	_, err := NewGroup(DefaultConfig(), apps.TestScale(), specs)
	if err == nil || !strings.Contains(err.Error(), "p1") {
		t.Fatalf("static-mode process accepted or not named: %v", err)
	}
}

// TestGroupFaultContainment: one fault schedule shared by every process in
// the group must not change any process's output, and the whole faulted run
// stays deterministic.
func TestGroupFaultContainment(t *testing.T) {
	specs := mixedSpecs(3, core.ModeSpeculating)
	base := runGroup(t, DefaultConfig(), specs)

	faulted := func() *Result {
		cfg := DefaultConfig()
		// Plans are stateful: each run parses a fresh one.
		p, err := fault.Parse("seed=17,rate=0.03,burst=2,spike=0.02x4")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = p
		return runGroup(t, cfg, specs)
	}
	a := faulted()
	if a.Disk.FaultedReqs == 0 {
		t.Fatal("plan injected nothing; the test is vacuous")
	}
	for i := range a.Procs {
		fa, fb := a.Procs[i].Stats, base.Procs[i].Stats
		if fa.Output != fb.Output || fa.ExitCode != fb.ExitCode {
			t.Errorf("proc %d output changed under recoverable faults (exit %d vs %d)",
				i, fa.ExitCode, fb.ExitCode)
		}
		if fa.ReadErrors != 0 {
			t.Errorf("proc %d surfaced %d EIO reads with no disk death", i, fa.ReadErrors)
		}
	}
	b := faulted()
	if a.Makespan != b.Makespan || a.Disk != b.Disk {
		t.Errorf("faulted group diverged: makespan %d vs %d", a.Makespan, b.Makespan)
	}
}
