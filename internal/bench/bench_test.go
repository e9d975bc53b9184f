package bench

import (
	"runtime"
	"strings"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/core"
	"spechint/internal/multi"
)

func TestRunTripleCorrectness(t *testing.T) {
	tr, err := RunTriple(Cell{App: apps.Agrep, Scale: apps.TestScale()})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Orig == nil || tr.Spec == nil || tr.Manual == nil {
		t.Fatal("incomplete triple")
	}
	if tr.Spec.Mode != core.ModeSpeculating {
		t.Fatal("mode mismatch")
	}
}

// TestRunAllocationFollowsReads: a cell's memory follows what it reads, not
// the size of the files it reads from. An XDataSlice sweep cell views 12
// slices of a 537 MB volume; a full-scale LSM cell merges 32 MB of tables and
// an MLShard cell loads 64 MB of shards, twice. Building and running each from
// cold caches, original and speculating, must allocate a small fraction of
// that. (Top-level and not parallel, so no other test allocates between the
// two readings.)
func TestRunAllocationFollowsReads(t *testing.T) {
	cells := []struct {
		app    apps.App
		mode   core.Mode
		scale  apps.Scale
		limit  uint64 // MB
		inputs string
	}{
		{apps.XDataSlice, core.ModeNoHint, apps.SweepScale(), 64, "its volume is 537 MB"},
		{apps.LSM, core.ModeNoHint, apps.FullScale(), 20, "its tables are 32 MB"},
		{apps.LSM, core.ModeSpeculating, apps.FullScale(), 20, "its tables are 32 MB"},
		{apps.MLShard, core.ModeNoHint, apps.FullScale(), 40, "its shards are 64 MB"},
		{apps.MLShard, core.ModeSpeculating, apps.FullScale(), 40, "its shards are 64 MB"},
	}
	for _, c := range cells {
		apps.ResetProgramCache()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := Run(c.app, c.mode, c.scale, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		mb := (after.TotalAlloc - before.TotalAlloc) >> 20
		t.Logf("%v %v: %d MB", c.app, c.mode, mb)
		if mb >= c.limit {
			t.Errorf("one %v %v cell allocated %d MB, want < %d (%s)", c.app, c.mode, mb, c.limit, c.inputs)
		}
	}
}

// TestRerunAllocatesNoMachine: what a run's key fixes is built once, and a
// finished run's machine memory goes to the next. A sweep-scale cell run right
// after another at its key allocates less than one machine's memory
// (MemSize+StackSize+SpecHeapSize, 4.5 MB at the default geometry); and a
// second group at the multi_mix benchmark's key, built after the first has
// run, allocates at most a quarter of what the first did: its workload
// content, programs and machine memory are all reused, not remade.
// (Top-level and not parallel, like TestRunAllocationFollowsReads.)
func TestRerunAllocatesNoMachine(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	mc := core.DefaultConfig(core.ModeSpeculating).Machine
	machine := uint64(mc.MemSize + mc.StackSize + mc.SpecHeapSize)
	for _, mode := range []core.Mode{core.ModeNoHint, core.ModeSpeculating} {
		run := func() {
			if _, _, err := Run(apps.XDataSlice, mode, apps.SweepScale(), nil); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if n := allocated(run); n >= machine {
			t.Errorf("a sweep-scale XDataSlice %v cell run after another allocated %d bytes, want < %d (one machine's memory)", mode, n, machine)
		}
	}

	apps.ResetProgramCache()
	specs := []multi.ProcSpec{{App: apps.Agrep}, {App: apps.XDataSlice}, {App: apps.Gnuld}, {App: apps.Agrep}}
	var g *multi.Group
	group := func() {
		var err error
		if g, err = multi.NewGroup(multi.DefaultConfig(), apps.FullScale(), specs); err != nil {
			t.Fatal(err)
		}
	}
	first := allocated(group)
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	second := allocated(group)
	t.Logf("multi_mix group: first NewGroup %d MB, second %d MB", first>>20, second>>20)
	if second > first/4 {
		t.Errorf("a second NewGroup at one key allocated %d bytes, the first %d; want at most a quarter", second, first)
	}
}

func TestImprovement(t *testing.T) {
	base := &core.RunStats{Elapsed: 100}
	half := &core.RunStats{Elapsed: 50}
	if got := Improvement(base, half); got != 50 {
		t.Fatalf("Improvement = %v, want 50", got)
	}
	if got := Improvement(base, base); got != 0 {
		t.Fatalf("Improvement = %v, want 0", got)
	}
}

func TestImprovementZeroBase(t *testing.T) {
	// A zero-elapsed baseline must yield 0, not -Inf/NaN: non-finite values
	// poison every JSON export that embeds the percentage.
	zero := &core.RunStats{Elapsed: 0}
	st := &core.RunStats{Elapsed: 50}
	if got := Improvement(zero, st); got != 0 {
		t.Fatalf("Improvement(zero base) = %v, want 0", got)
	}
	if got := Improvement(zero, zero); got != 0 {
		t.Fatalf("Improvement(zero, zero) = %v, want 0", got)
	}
}

// Each experiment must run at test scale and produce a non-empty table
// containing every benchmark name it covers.
func TestAllExperimentsRunAtTestScale(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			rep, err := RunByName(name, apps.TestScale())
			if err != nil {
				t.Fatal(err)
			}
			out := rep.Text()
			if len(out) < 40 {
				t.Fatalf("suspiciously short output:\n%s", out)
			}
			switch name {
			case "throttle", "adaptive", "join": // single-app experiments
				if !strings.Contains(out, "original") && !strings.Contains(out, "speculating") {
					t.Errorf("%s output missing expected rows:\n%s", name, out)
				}
			case "cluster": // synthetic population, no paper apps
				if !strings.Contains(out, "moderate") || !strings.Contains(out, "heavy") {
					t.Errorf("%s output missing load rows:\n%s", name, out)
				}
			case "overload": // synthetic population, no paper apps
				for _, want := range []string{"shed-off", "shed-on", "failover"} {
					if !strings.Contains(out, want) {
						t.Errorf("%s output missing %q rows:\n%s", name, want, out)
					}
				}
			default:
				if !strings.Contains(out, "Agrep") {
					t.Errorf("output missing Agrep:\n%s", out)
				}
			}
		})
	}
}

func TestRunByNameUnknown(t *testing.T) {
	if _, err := RunByName("nope", apps.TestScale()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure from the paper's evaluation must be present.
	want := []string{"table1", "table3", "table4", "table5", "table6",
		"table7", "table8", "fig3", "fig4", "fig5", "fig6", "regionsize", "throttle"}
	for _, n := range want {
		if _, ok := Registry[n]; !ok {
			t.Errorf("missing experiment %q", n)
		}
	}
}
