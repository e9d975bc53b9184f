package bench

import (
	"testing"

	"spechint/internal/apps"
	"spechint/internal/core"
)

// TestPaperShapes is the reproduction's regression suite: it runs the
// headline configuration at sweep scale and asserts the qualitative results
// the paper reports. If a model change breaks a shape, this fails before
// EXPERIMENTS.md goes stale.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-scale run")
	}
	scale := apps.SweepScale()
	triples := map[apps.App]*Triple{}
	for _, app := range Apps {
		tr, err := RunTriple(Cell{App: app, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		triples[app] = tr
	}

	// Shape 1 (Fig. 3): substantial reductions for every app, speculating.
	for app, tr := range triples {
		if imp := Improvement(tr.Orig, tr.Spec); imp < 20 {
			t.Errorf("%v: speculating improvement %.1f%%, want >= 20%%", app, imp)
		}
	}

	// Shape 2 (Fig. 3): speculation matches manual for Agrep and XDataSlice
	// (within a few points) and trails it for Gnuld.
	for _, app := range []apps.App{apps.Agrep, apps.XDataSlice} {
		tr := triples[app]
		specI := Improvement(tr.Orig, tr.Spec)
		manI := Improvement(tr.Orig, tr.Manual)
		if specI < manI-5 {
			t.Errorf("%v: speculating (%.1f%%) should match manual (%.1f%%)", app, specI, manI)
		}
	}
	g := triples[apps.Gnuld]
	if Improvement(g.Orig, g.Spec) >= Improvement(g.Orig, g.Manual) {
		t.Error("Gnuld: speculation should trail manual (data dependencies)")
	}
	if g.Spec.Elapsed >= g.Orig.Elapsed {
		t.Error("Gnuld: speculation should still beat the original at 4 disks")
	}

	// Shape 3 (Table 4): hint coverage ordering — XDS ~all, Agrep ~70% of
	// calls (EOF reads), Gnuld lowest meaningful coverage with erroneous
	// hints; the others with none.
	frac := func(st *core.RunStats) float64 {
		return float64(st.HintedReads) / float64(st.ReadCalls)
	}
	if frac(triples[apps.XDataSlice].Spec) < 0.95 {
		t.Errorf("XDS hinted %.2f, want ~1", frac(triples[apps.XDataSlice].Spec))
	}
	if f := frac(triples[apps.Agrep].Spec); f < 0.60 || f > 0.85 {
		t.Errorf("Agrep hinted %.2f, want ~0.7 (EOF reads unhinted)", f)
	}
	if triples[apps.Gnuld].Spec.Tip.InaccurateCalls() == 0 {
		t.Error("Gnuld speculation should produce erroneous hints")
	}
	if triples[apps.Agrep].Spec.Tip.InaccurateCalls() != 0 {
		t.Error("Agrep speculation should produce no erroneous hints")
	}

	// Shape 4 (Table 5): the read-ahead policy wastes most prefetches for
	// the original XDataSlice; the hinting builds waste almost none.
	x := triples[apps.XDataSlice]
	origUnused := x.Orig.Cache.UnusedHint + x.Orig.Cache.UnusedRA
	if pref := x.Orig.Tip.PrefetchedBlocks(); float64(origUnused) < 0.5*float64(pref) {
		t.Errorf("XDS original unused prefetches %d of %d, want majority", origUnused, pref)
	}
	specUnused := x.Spec.Cache.UnusedHint + x.Spec.Cache.UnusedRA
	if specUnused > 50 {
		t.Errorf("XDS speculating unused prefetches = %d, want ~0", specUnused)
	}

	// Shape 5 (Table 6): the speculating builds restart; manual/original
	// never do.
	for app, tr := range triples {
		if tr.Spec.Restarts == 0 {
			t.Errorf("%v: speculating run never restarted", app)
		}
		if tr.Orig.Restarts != 0 || tr.Manual.Restarts != 0 {
			t.Errorf("%v: non-speculating run restarted", app)
		}
	}

	// Shape 6 (§4.4): Agrep has the largest dilation factor, > 1.
	ag := triples[apps.Agrep].Spec.DilationFactor()
	if ag <= 1.5 {
		t.Errorf("Agrep dilation %.1f, want well above 1", ag)
	}
	if gd := triples[apps.Gnuld].Spec.DilationFactor(); gd > ag {
		t.Errorf("Gnuld dilation %.1f exceeds Agrep's %.1f", gd, ag)
	}

	// Shape 7 (Fig. 5 seed): hinting exploits parallelism — one disk gives
	// far less benefit than four for Agrep.
	oneDisk, err := RunTriple(Cell{App: apps.Agrep, Scale: scale, Disks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if i1, i4 := Improvement(oneDisk.Orig, oneDisk.Spec), Improvement(triples[apps.Agrep].Orig, triples[apps.Agrep].Spec); i1 > i4/2 {
		t.Errorf("Agrep: 1-disk improvement %.1f%% not far below 4-disk %.1f%%", i1, i4)
	}
}
