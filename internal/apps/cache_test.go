package apps

import (
	"testing"

	"spechint/internal/core"
	"spechint/internal/par"
)

// TestProgramCacheReuse: built workloads are immutable and shared — two
// builds at the same (app, scale) are one bundle on one sealed file system,
// and only a cache reset makes a new one.
func TestProgramCacheReuse(t *testing.T) {
	ResetProgramCache()
	a, err := Build(Agrep, TestScale())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Agrep, TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same (app, scale) built two bundles; a built workload is shared")
	}
	if _, err := a.FS.Create("late", nil); err == nil {
		t.Error("Create succeeded on a published bundle's file system; it must be sealed")
	}
	if n := ProgramCacheLen(); n != 1 {
		t.Errorf("cache holds %d artifact sets, want 1", n)
	}

	ResetProgramCache()
	c, err := Build(Agrep, TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if c == a || c.FS == a.FS || c.Original == a.Original {
		t.Error("build after ResetProgramCache reused the dropped bundle")
	}
	if c.Transform.TotalInstrs != a.Transform.TotalInstrs || c.FS.TotalBlocks() != a.FS.TotalBlocks() {
		t.Error("rebuilt bundle differs from the dropped one; builds are deterministic")
	}
}

// TestProgramCacheKeyedByScale: any scale difference — here the
// per-process prefix and seed — is a distinct artifact set.
func TestProgramCacheKeyedByScale(t *testing.T) {
	ResetProgramCache()
	base := TestScale()
	if _, err := Build(Agrep, base); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(Agrep, base.WithProcess(1, 1000)); err != nil {
		t.Fatal(err)
	}
	if n := ProgramCacheLen(); n != 2 {
		t.Errorf("cache holds %d artifact sets, want 2 (prefix/seed must key)", n)
	}
}

// TestProgramCacheConcurrentBuilds: many concurrent cells on a few keys get
// one bundle per key and all run on it at once — original and speculating
// cells side by side on one file system. Under -race (make race runs -short,
// so this test never skips) it is the wall for the sharing rule: a run that
// writes anything reachable from a bundle fails here.
func TestProgramCacheConcurrentBuilds(t *testing.T) {
	ResetProgramCache()
	scale := TestScale()
	type cell struct {
		b  *Bundle
		st *core.RunStats
	}
	cells, err := par.MapErr(8, 16, func(i int) (cell, error) {
		b, err := Build(App(i%3), scale) // Agrep, Gnuld, XDataSlice
		if err != nil {
			return cell{}, err
		}
		mode, prog := core.ModeNoHint, b.Original
		if i%2 == 1 {
			mode, prog = core.ModeSpeculating, b.Transformed
		}
		sys, err := core.New(core.DefaultConfig(mode), prog, b.FS)
		if err != nil {
			return cell{}, err
		}
		st, err := sys.Run()
		return cell{b, st}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		// Cells i and i%6 have the same app and mode, so everything matches.
		ref := cells[i%6]
		if c.b != cells[i%3].b {
			t.Fatalf("cell %d: bundle differs from cell %d's at the same key", i, i%3)
		}
		if c.st.ExitCode != cells[i%3].st.ExitCode {
			t.Fatalf("cell %d: exit code %d, cell %d got %d on the same bundle", i, c.st.ExitCode, i%3, cells[i%3].st.ExitCode)
		}
		if c.st.Elapsed != ref.st.Elapsed {
			t.Fatalf("cell %d: elapsed %d, cell %d ran the same configuration in %d", i, c.st.Elapsed, i%6, ref.st.Elapsed)
		}
	}
	if n := ProgramCacheLen(); n != 3 {
		t.Errorf("cache holds %d artifact sets, want 3", n)
	}
}
