package apps

import (
	"bytes"
	"errors"
	"testing"

	"spechint/internal/core"
	"spechint/internal/fsim"
	"spechint/internal/par"
	"spechint/internal/workload"
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

// TestBuildOnLaysOutAsGenerated: BuildOn creates no content of its own; it
// copies the files its key's bundle generated. On a fresh file system, on one
// that already holds another process's files (the multi case) and on one
// with another block size, a cold BuildOn (after ResetProgramCache) and a
// warm one must both give every file the name, Start, size and bytes that
// running the generator on that file system gives it.
func TestBuildOnLaysOutAsGenerated(t *testing.T) {
	generate := func(fs *fsim.FS, app App, s Scale) []string {
		switch app {
		case Agrep:
			return s.Agrep.Build(fs)
		case Gnuld:
			return s.Gnuld.Build(fs)
		}
		name, _ := s.XDS.Build(fs)
		return []string{name}
	}
	base := TestScale()
	for _, fc := range []struct {
		name      string
		blockSize int
		other     bool // the file system already holds process 1's Gnuld files
	}{
		{"fresh", 8192, false},
		{"shared", 8192, true},
		{"4KB-blocks", 4096, true},
	} {
		newFS := func() *fsim.FS {
			fs := fsim.New(fc.blockSize)
			workload.SetBenchLayout(fs)
			if fc.other {
				generate(fs, Gnuld, base.WithProcess(1, 101))
			}
			return fs
		}
		for _, app := range []App{Agrep, Gnuld, XDataSlice} {
			s := base.WithProcess(2, 101)
			ref := newFS()
			names := generate(ref, app, s)
			ResetProgramCache()
			cold, warm := newFS(), newFS()
			for _, fs := range []*fsim.FS{cold, warm} {
				if _, err := BuildOn(fs, app, s); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range []struct {
				which string
				fs    *fsim.FS
			}{{"cold", cold}, {"warm", warm}} {
				if got, want := c.fs.TotalBlocks(), ref.TotalBlocks(); got != want {
					t.Errorf("%s %v %s: %d blocks, the generator lays out %d", fc.name, app, c.which, got, want)
				}
				for _, name := range names {
					want, _ := ref.Lookup(name)
					got, ok := c.fs.Lookup(name)
					if !ok {
						t.Fatalf("%s %v %s: no file %q", fc.name, app, c.which, name)
					}
					if got.Start != want.Start || got.Size() != want.Size() {
						t.Errorf("%s %v %s: %q at block %d, %d bytes; the generator lays it at %d, %d bytes",
							fc.name, app, c.which, name, got.Start, got.Size(), want.Start, want.Size())
					}
					gb, wb := make([]byte, want.Size()), make([]byte, want.Size())
					got.ReadAt(gb, 0)
					want.ReadAt(wb, 0)
					if !bytes.Equal(gb, wb) {
						t.Errorf("%s %v %s: %q holds other bytes than the generator's", fc.name, app, c.which, name)
					}
				}
			}
		}
	}
}

// TestBuildOnConcurrentGeneratesOnce: concurrent BuildOns at one key, each
// onto its own file system, share one generation and one set of programs.
func TestBuildOnConcurrentGeneratesOnce(t *testing.T) {
	ResetProgramCache()
	s := TestScale().WithProcess(1, 101)
	bs, err := par.MapErr(8, 16, func(int) (*Bundle, error) {
		fs := fsim.New(8192)
		workload.SetBenchLayout(fs)
		b, err := BuildOn(fs, Agrep, s)
		if err == nil && b.FS != fs {
			err = errors.New("BuildOn's bundle is not over the caller's file system")
		}
		return b, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bs {
		if b.Original != bs[0].Original {
			t.Fatalf("BuildOn %d built its own workload and programs; the key's are shared", i)
		}
	}
	if n := ProgramCacheLen(); n != 1 {
		t.Errorf("cache holds %d bundles after 16 BuildOns at one key, want 1", n)
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
// writes anything reachable from a bundle fails here, and so does machine
// memory handed between workers without synchronisation.
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
		defer sys.Release() // the next cell on this worker reuses its memory
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
