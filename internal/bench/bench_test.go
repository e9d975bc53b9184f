package bench

import (
	"runtime"
	"strings"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/core"
)

func TestRunTripleCorrectness(t *testing.T) {
	tr, err := RunTriple(apps.Agrep, apps.TestScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Orig == nil || tr.Spec == nil || tr.Manual == nil || tr.Bundle == nil {
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
			case "speed": // simulator self-check, no paper apps
				for _, want := range []string{"steady-state", "burst", "vm dispatch"} {
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
