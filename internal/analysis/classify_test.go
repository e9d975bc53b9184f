package analysis

import (
	"fmt"
	"strings"
	"testing"

	"spechint/internal/apps"
)

// The per-site access classes Synthesize reports must reproduce the paper's
// per-application story (§4.1-§4.3): Agrep's accesses are fully determined by
// argv, XDataSlice needs exactly one header read, and Gnuld's later passes
// chase pointers through file data.

func classifyApp(t *testing.T, a apps.App) *SynthReport {
	t.Helper()
	b, err := apps.Build(a, apps.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Synthesize(b.Original)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func classCounts(r *SynthReport) map[AccessClass]int {
	m := make(map[AccessClass]int)
	for _, s := range r.Sites {
		m[s.Class]++
	}
	return m
}

// hintableSiteFraction is the purely static summary: the fraction of read
// sites whose class is hintable without chasing file data.
func hintableSiteFraction(r *SynthReport) float64 {
	if len(r.Sites) == 0 {
		return 0
	}
	return 1 - float64(classCounts(r)[ClassData])/float64(len(r.Sites))
}

func TestClassifyAgrep(t *testing.T) {
	r := classifyApp(t, apps.Agrep)
	if len(r.Sites) == 0 {
		t.Fatal("no read sites found")
	}
	for _, s := range r.Sites {
		if s.Class != ClassArgv {
			t.Errorf("agrep site at %d is %v, want argv-determined", s.PC, s.Class)
		}
	}
	if f := hintableSiteFraction(r); f != 1.0 {
		t.Errorf("agrep hintable fraction = %v, want 1.0", f)
	}
}

func TestClassifyXDataSlice(t *testing.T) {
	c := classCounts(classifyApp(t, apps.XDataSlice))
	if c[ClassData] != 0 {
		t.Errorf("xds has %d data-dependent sites, want 0", c[ClassData])
	}
	if c[ClassHeader] == 0 {
		t.Error("xds block reads should be header-determined (offsets come from the header read)")
	}
	if c[ClassArgv] == 0 {
		t.Error("the xds header read itself should be argv-determined")
	}
}

func TestClassifyGnuld(t *testing.T) {
	r := classifyApp(t, apps.Gnuld)
	c := classCounts(r)
	if c[ClassArgv] == 0 {
		t.Error("gnuld's per-file header reads should be argv-determined")
	}
	if c[ClassHeader] == 0 {
		t.Error("gnuld's section-table reads should be header-determined")
	}
	if c[ClassData] == 0 {
		t.Error("gnuld's symbol/debug/pass-2 reads should be data-dependent")
	}
	// The defining property: a strict majority of gnuld's sites depend on
	// file data (the paper's reason its coverage tops out near half).
	if 2*c[ClassData] <= len(r.Sites) {
		t.Errorf("gnuld data-dependent sites = %d of %d, want a majority", c[ClassData], len(r.Sites))
	}
}

func TestClassifyPostgres(t *testing.T) {
	r := classifyApp(t, apps.Postgres)
	if len(r.Sites) == 0 {
		t.Fatal("no read sites found")
	}
	for _, s := range r.Sites {
		if s.Class != ClassData {
			t.Errorf("postgres site at %d is %v, want data-dependent (probe offsets come from tuples)", s.PC, s.Class)
		}
	}
}

// The per-app static hintability ordering mirrors the paper's Table 4:
// XDataSlice > Agrep > Gnuld.
func TestHintableOrderingAcrossApps(t *testing.T) {
	xds := hintableSiteFraction(classifyApp(t, apps.XDataSlice))
	agrep := hintableSiteFraction(classifyApp(t, apps.Agrep))
	gnuld := hintableSiteFraction(classifyApp(t, apps.Gnuld))
	if !(xds >= agrep && agrep > gnuld) {
		t.Errorf("hintable fractions xds=%.2f agrep=%.2f gnuld=%.2f, want xds >= agrep > gnuld", xds, agrep, gnuld)
	}
}

func TestClassifyRejectsTransformed(t *testing.T) {
	b, err := apps.Build(apps.Agrep, apps.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Synthesize(b.Transformed); err == nil {
		t.Fatal("classification accepted a transformed program")
	}
}

// TestReportStringMentionsEverySite: the -synthesize report names every read
// site with its class.
func TestReportStringMentionsEverySite(t *testing.T) {
	r := classifyApp(t, apps.Gnuld)
	s := r.String()
	for _, site := range r.Sites {
		if !strings.Contains(s, fmt.Sprintf("pc %-5d", site.PC)) {
			t.Fatalf("report missing site pc %d:\n%s", site.PC, s)
		}
		if !strings.Contains(s, "class "+site.Class.String()) {
			t.Fatalf("report missing class %v:\n%s", site.Class, s)
		}
	}
	if !strings.Contains(s, "read sites:") {
		t.Fatalf("report missing summary:\n%s", s)
	}
}

// TestAnalyzeReportDeterministic: the per-site classes and the report at the
// transformer's jump-table lookback must be byte-identical across runs — no
// map-iteration order may leak into either.
func TestAnalyzeReportDeterministic(t *testing.T) {
	for _, b := range buildAllBundles(t) {
		var prev string
		for trial := 0; trial < 5; trial++ {
			r, err := Synthesize(b.Original)
			if err != nil {
				t.Fatalf("%v: %v", b.App, err)
			}
			got := r.String()
			for _, s := range r.Sites {
				got += fmt.Sprintf("%d %v\n", s.PC, s.Class)
			}
			if trial > 0 && got != prev {
				t.Fatalf("%v: report differs between runs", b.App)
			}
			prev = got
		}
	}
}

// TestPredictedCoverageDeterministic: the float accumulation in
// PredictedCoverage walks a map; it must sort first so the low bits do not
// depend on iteration order.
func TestPredictedCoverageDeterministic(t *testing.T) {
	b := buildAllBundles(t)[0]
	r, err := Synthesize(b.Original)
	if err != nil {
		t.Fatal(err)
	}
	sites := make(map[int64]DynSiteStats)
	for i, s := range r.Sites {
		sites[s.PC] = DynSiteStats{Calls: int64(3 + i), DataCalls: int64(2 + i)}
	}
	// Also weight a PC absent from the report (conservative data-dependent path).
	sites[1<<40] = DynSiteStats{Calls: 7, DataCalls: 5}
	first := r.PredictedCoverage(sites)
	for trial := 0; trial < 32; trial++ {
		if got := r.PredictedCoverage(sites); got != first {
			t.Fatalf("PredictedCoverage varies: %v then %v", first, got)
		}
	}
}
