package apps

import (
	"testing"

	"spechint/internal/core"
	"spechint/internal/fsim"
	"spechint/internal/vm"
	"spechint/internal/workload"
)

// runBundle executes one variant of app's prepared bundle on a substrate of
// its own (the bundle itself is shared between calls).
func runBundle(t *testing.T, app App, mode core.Mode) *core.RunStats {
	t.Helper()
	b, err := Build(app, TestScale())
	if err != nil {
		t.Fatal(err)
	}
	var prog *vm.Program
	switch mode {
	case core.ModeNoHint:
		prog = b.Original
	case core.ModeSpeculating:
		prog = b.Transformed
	case core.ModeManual:
		prog = b.Manual
	}
	sys, err := core.New(core.DefaultConfig(mode), prog, b.FS)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.Run()
	if err != nil {
		t.Fatalf("%v %v: %v", app, mode, err)
	}
	return st
}

func TestAgrepCorrectAcrossModes(t *testing.T) {
	orig := runBundle(t, Agrep, core.ModeNoHint)
	spec := runBundle(t, Agrep, core.ModeSpeculating)
	man := runBundle(t, Agrep, core.ModeManual)
	if orig.ExitCode != spec.ExitCode || orig.ExitCode != man.ExitCode {
		t.Fatalf("exit codes: orig %d spec %d man %d", orig.ExitCode, spec.ExitCode, man.ExitCode)
	}
	// Verify the match count against a host-side scan.
	fs := fsim.New(8192)
	workload.SetBenchLayout(fs)
	scale := TestScale()
	names := scale.Agrep.Build(fs)
	want := workload.CountPattern(fs, names, scale.Agrep.Pattern)
	if got := int(orig.ExitCode >> 20); got != want {
		t.Fatalf("match count = %d, want %d", got, want)
	}
	if want == 0 {
		t.Fatal("workload planted no patterns")
	}
}

func TestGnuldCorrectAcrossModes(t *testing.T) {
	orig := runBundle(t, Gnuld, core.ModeNoHint)
	spec := runBundle(t, Gnuld, core.ModeSpeculating)
	man := runBundle(t, Gnuld, core.ModeManual)
	if orig.ExitCode != spec.ExitCode || orig.ExitCode != man.ExitCode {
		t.Fatalf("exit codes: orig %d spec %d man %d", orig.ExitCode, spec.ExitCode, man.ExitCode)
	}
	if orig.ExitCode <= 0 {
		t.Fatalf("degenerate checksum %d", orig.ExitCode)
	}
	if orig.WriteCalls == 0 || orig.WriteBytes == 0 {
		t.Fatal("gnuld produced no output writes")
	}
}

func TestXDSCorrectAcrossModes(t *testing.T) {
	orig := runBundle(t, XDataSlice, core.ModeNoHint)
	spec := runBundle(t, XDataSlice, core.ModeSpeculating)
	man := runBundle(t, XDataSlice, core.ModeManual)
	if orig.ExitCode != spec.ExitCode || orig.ExitCode != man.ExitCode {
		t.Fatalf("exit codes: orig %d spec %d man %d", orig.ExitCode, spec.ExitCode, man.ExitCode)
	}
	if orig.ExitCode <= 0 {
		t.Fatalf("degenerate checksum %d", orig.ExitCode)
	}
}

func TestXDSReadCountMatchesSliceBlocks(t *testing.T) {
	st := runBundle(t, XDataSlice, core.ModeNoHint)
	fs := fsim.New(8192)
	scale := TestScale()
	_, slices := scale.XDS.Build(fs)
	expected := int64(1) // header read
	var lastBlock int64 = -1
	for _, sl := range slices {
		for _, blk := range workload.SliceBlocks(scale.XDS.N, sl) {
			off := blk * 8192
			if off != lastBlock {
				expected++
				lastBlock = off
			}
		}
	}
	if st.ReadCalls != expected {
		t.Fatalf("ReadCalls = %d, want %d (1 header + slice blocks)", st.ReadCalls, expected)
	}
}

func TestAgrepSpeculationHintsMostReads(t *testing.T) {
	spec := runBundle(t, Agrep, core.ModeSpeculating)
	// Paper Table 4: nearly all data-returning reads hinted (68% of all
	// calls only because of per-file EOF reads).
	scale := TestScale()
	dataReads := spec.ReadCalls - int64(scale.Agrep.NumFiles) // minus EOF reads
	if spec.HintedReads*10 < dataReads*8 {
		t.Fatalf("hinted %d of %d data reads, want >= 80%%", spec.HintedReads, dataReads)
	}
	if spec.Tip.InaccurateCalls() > spec.Tip.HintCalls/20 {
		t.Fatalf("agrep inaccurate hints %d of %d, want ~0", spec.Tip.InaccurateCalls(), spec.Tip.HintCalls)
	}
}

func TestGnuldSpeculationPartialHinting(t *testing.T) {
	spec := runBundle(t, Gnuld, core.ModeSpeculating)
	man := runBundle(t, Gnuld, core.ModeManual)
	// Gnuld's data dependencies keep speculation well below manual coverage
	// (paper: 55% vs 78%) and generate some erroneous hints.
	specFrac := float64(spec.HintedReads) / float64(spec.ReadCalls)
	manFrac := float64(man.HintedReads) / float64(man.ReadCalls)
	if specFrac >= manFrac {
		t.Fatalf("speculation hinted %.0f%% >= manual %.0f%%, want below", specFrac*100, manFrac*100)
	}
	if spec.Restarts < 5 {
		t.Fatalf("Restarts = %d, want many for data-dependent gnuld", spec.Restarts)
	}
}

func TestXDSSpeculationHintsMostReads(t *testing.T) {
	spec := runBundle(t, XDataSlice, core.ModeSpeculating)
	// After the header read everything is computable: paper says 97.5%.
	if spec.HintedReads*100 < spec.ReadCalls*85 {
		t.Fatalf("hinted %d of %d reads, want >= 85%%", spec.HintedReads, spec.ReadCalls)
	}
}

func TestTransformStatsPerApp(t *testing.T) {
	for _, app := range []App{Agrep, Gnuld, XDataSlice} {
		b, err := Build(app, TestScale())
		if err != nil {
			t.Fatal(err)
		}
		ts := b.Transform
		if ts.ChecksAdded == 0 {
			t.Errorf("%v: no COW checks added", app)
		}
		if ts.HintSites == 0 {
			t.Errorf("%v: no read sites found", app)
		}
		if ts.SizeIncreasePct() < 99 {
			t.Errorf("%v: size increase %.0f%%", app, ts.SizeIncreasePct())
		}
	}
}

func TestSpeculationNeverSlowerThanOriginalMuch(t *testing.T) {
	// The "free" design goal across all three apps at 4 disks.
	for _, app := range []App{Agrep, Gnuld, XDataSlice} {
		orig := runBundle(t, app, core.ModeNoHint)
		spec := runBundle(t, app, core.ModeSpeculating)
		ratio := float64(spec.Elapsed) / float64(orig.Elapsed)
		if ratio > 1.10 {
			t.Errorf("%v: speculating/original = %.2f, want <= 1.10", app, ratio)
		}
	}
}

func TestPostgresCorrectAcrossModes(t *testing.T) {
	orig := runBundle(t, Postgres, core.ModeNoHint)
	spec := runBundle(t, Postgres, core.ModeSpeculating)
	man := runBundle(t, Postgres, core.ModeManual)
	if orig.ExitCode != spec.ExitCode || orig.ExitCode != man.ExitCode {
		t.Fatalf("exit codes: orig %d spec %d man %d", orig.ExitCode, spec.ExitCode, man.ExitCode)
	}
	if orig.ExitCode <= 0 {
		t.Fatalf("degenerate checksum %d", orig.ExitCode)
	}
	// Joined tuples are written out.
	if orig.WriteCalls == 0 {
		t.Fatal("no join output written")
	}
	if man.HintedReads == 0 {
		t.Fatal("manual postgres hinted nothing")
	}
}

func TestPostgresSelectivityScalesReads(t *testing.T) {
	low := TestScale()
	low.Postgres.Selectivity = 10
	high := TestScale()
	high.Postgres.Selectivity = 80

	run := func(scale Scale) *core.RunStats {
		b, err := Build(Postgres, scale)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.New(core.DefaultConfig(core.ModeNoHint), b.Original, b.FS)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	lo, hi := run(low), run(high)
	if hi.ReadCalls <= lo.ReadCalls*3 {
		t.Fatalf("reads at 80%% (%d) not much above 10%% (%d)", hi.ReadCalls, lo.ReadCalls)
	}
}
