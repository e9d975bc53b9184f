package apps

import (
	"testing"

	"spechint/internal/analysis"
	"spechint/internal/core"
)

// The golden static-vs-dynamic check: the synthesizer's per-site classes,
// weighted by what each site actually executed, must land near the measured
// hinted-read fraction of a speculating run.
//
// coverageTolerance documents how closely the two agree. The static model is
// deliberately coarse — two probabilities, 1.0 for argv/header-determined
// sites and 0.5 for data-dependent ones (the paper's §4.2 "limited to about
// half") — and the dynamics add effects the model ignores: the speculating
// thread starts cold, every off-track data read costs a restart during which
// hintable reads also go unhinted, and EOF probes never hint. At the scales
// below the residual error is ~0.01 for Agrep and XDataSlice and ~0.08 for
// Gnuld (the restart-coupling app), so 0.12 holds with margin while still
// failing if a class flips (any misclassification moves the prediction by
// >= 0.15 here).
const coverageTolerance = 0.12

// coverageScale puts each app in the regime where speculation has room to
// work: Gnuld needs enough files and large enough sections for the
// speculating thread to get ahead of the restart storm (at tiny scale its
// dynamic coverage collapses to ~10% for reasons the static model does not
// see), and Agrep needs multi-block files so EOF probes do not dominate.
func coverageScale() Scale {
	s := TestScale()
	s.Agrep.MeanSize = 24000
	s.Gnuld.NumFiles = 120
	s.Gnuld.SectionSize = 16000
	return s
}

func measureCoverage(t *testing.T, app App) (predicted, dynamic float64) {
	t.Helper()
	b, err := Build(app, coverageScale())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(core.DefaultConfig(core.ModeSpeculating), b.Transformed, b.FS)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReadCalls == 0 {
		t.Fatalf("%v made no reads", app)
	}

	rep, err := analysis.Synthesize(b.Original, analysis.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sites := make(map[int64]analysis.DynSiteStats, len(st.ReadSites))
	var siteCalls int64
	for pc, s := range st.ReadSites {
		sites[pc] = analysis.DynSiteStats{Calls: s.Calls, DataCalls: s.DataCalls}
		siteCalls += s.Calls
	}
	if siteCalls != st.ReadCalls {
		t.Fatalf("%v: per-site calls %d != ReadCalls %d", app, siteCalls, st.ReadCalls)
	}
	return rep.PredictedCoverage(sites), float64(st.HintedReads) / float64(st.ReadCalls)
}

func TestStaticCoveragePredictionPerApp(t *testing.T) {
	for _, app := range []App{Agrep, Gnuld, XDataSlice} {
		pred, dyn := measureCoverage(t, app)
		if diff := pred - dyn; diff < -coverageTolerance || diff > coverageTolerance {
			t.Errorf("%v: predicted %.3f vs dynamic %.3f, |diff| > %.2f",
				app, pred, dyn, coverageTolerance)
		} else {
			t.Logf("%v: predicted %.3f dynamic %.3f", app, pred, dyn)
		}
	}
}

// Table 4's ordering must hold in both the static prediction and the
// measured run: XDataSlice > Agrep > Gnuld.
func TestCoverageOrderingStaticAndDynamic(t *testing.T) {
	predA, dynA := measureCoverage(t, Agrep)
	predG, dynG := measureCoverage(t, Gnuld)
	predX, dynX := measureCoverage(t, XDataSlice)
	if !(predX > predA && predA > predG) {
		t.Errorf("predicted ordering xds=%.3f agrep=%.3f gnuld=%.3f, want xds > agrep > gnuld",
			predX, predA, predG)
	}
	if !(dynX > dynA && dynA > dynG) {
		t.Errorf("dynamic ordering xds=%.3f agrep=%.3f gnuld=%.3f, want xds > agrep > gnuld",
			dynX, dynA, dynG)
	}
}

// Every dynamically observed read site must be statically classified: the
// CFG + taint pass reaches all code the machine executes.
func TestEveryDynamicSiteClassified(t *testing.T) {
	for _, app := range []App{Agrep, Gnuld, XDataSlice, Postgres} {
		b, err := Build(app, TestScale())
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
		rep, err := analysis.Synthesize(b.Original, analysis.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		static := make(map[int64]bool, len(rep.Sites))
		for _, s := range rep.Sites {
			static[s.PC] = true
		}
		for pc := range st.ReadSites {
			if !static[pc] {
				t.Errorf("%v: dynamic read site at pc %d not in the static report", app, pc)
			}
		}
	}
}
