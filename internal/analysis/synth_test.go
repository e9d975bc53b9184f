package analysis_test

import (
	"fmt"
	"strings"
	"testing"

	"spechint/internal/analysis"
	"spechint/internal/apps"
)

func synthApp(t *testing.T, app apps.App) (*apps.Bundle, *analysis.SynthReport) {
	t.Helper()
	b, err := apps.Build(app, apps.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	r, err := analysis.Synthesize(b.Original, analysis.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return b, r
}

func provedSites(r *analysis.SynthReport) []analysis.SynthSite {
	var out []analysis.SynthSite
	for _, s := range r.Sites {
		if s.Conf == analysis.ConfProved {
			out = append(out, s)
		}
	}
	return out
}

// TestSynthesizeAgrep: the whole access pattern is argument-determined, so
// the one read site compiles to a whole-file hint per input file, in command
// line order.
func TestSynthesizeAgrep(t *testing.T) {
	scale := apps.TestScale()
	_, r := synthApp(t, apps.Agrep)
	ps := provedSites(r)
	if len(ps) != 1 {
		t.Fatalf("proved sites = %d, want 1\n%s", len(ps), r)
	}
	n := scale.Agrep.NumFiles
	if len(r.Hints) != n {
		t.Fatalf("hints = %d, want %d (one whole-file hint per input)", len(r.Hints), n)
	}
	seen := map[string]bool{}
	for i, h := range r.Hints {
		if h.Iter != int64(i) {
			t.Errorf("hint %d: iter = %d, want command-line order", i, h.Iter)
		}
		if h.Off != 0 || h.N < 1<<20 {
			t.Errorf("hint %d: (off=%d, n=%d), want whole-file from 0", i, h.Off, h.N)
		}
		if h.Path == "" || seen[h.Path] {
			t.Errorf("hint %d: path %q empty or duplicated", i, h.Path)
		}
		seen[h.Path] = true
	}
}

// TestSynthesizeGnuld: only the fixed-size header read at offset 0 is
// provable; the metadata-chasing reads depend on header contents and stay
// speculative-only.
func TestSynthesizeGnuld(t *testing.T) {
	scale := apps.TestScale()
	_, r := synthApp(t, apps.Gnuld)
	ps := provedSites(r)
	if len(ps) != 1 {
		t.Fatalf("proved sites = %d, want 1\n%s", len(ps), r)
	}
	n := scale.Gnuld.NumFiles
	if len(r.Hints) != n {
		t.Fatalf("hints = %d, want %d header hints", len(r.Hints), n)
	}
	for i, h := range r.Hints {
		if h.Off != 0 || h.N != 64 {
			t.Errorf("hint %d: (off=%d, n=%d), want the 64-byte header at 0", i, h.Off, h.N)
		}
	}
	// The pointer-chasing sites must NOT be proved: their offsets come from
	// read buffers.
	for _, s := range r.Sites {
		if s.Conf == analysis.ConfProved && s.PC != ps[0].PC {
			t.Errorf("site pc %d unexpectedly proved", s.PC)
		}
	}
}

// TestSynthesizeXDS: the header read is proved; the block reads are bounded
// by the dimension sanity check but not enumerable (offsets come from file
// contents).
func TestSynthesizeXDS(t *testing.T) {
	_, r := synthApp(t, apps.XDataSlice)
	counts := r.ConfCounts()
	if counts[analysis.ConfProved] != 1 || counts[analysis.ConfBounded] != 1 {
		t.Fatalf("counts = %v, want 1 proved + 1 bounded\n%s", counts, r)
	}
	if len(r.Hints) != 1 {
		t.Fatalf("hints = %d, want the single header hint", len(r.Hints))
	}
	h := r.Hints[0]
	if h.Off != 0 || h.N != 8 {
		t.Errorf("header hint = (off=%d, n=%d), want (0, 8)", h.Off, h.N)
	}
	for _, s := range r.Sites {
		if s.Conf == analysis.ConfBounded {
			if s.Bound.LoInf || s.Bound.HiInf || s.Bound.Lo < 0 {
				t.Errorf("bounded site pc %d: bound %v not a usable offset interval", s.PC, s.Bound)
			}
		}
	}
}

// TestSynthesizePostgres: the inner-relation offsets are data-dependent
// (computed from outer tuples read at runtime): nothing must be proved, and
// no false hints emitted.
func TestSynthesizePostgres(t *testing.T) {
	_, r := synthApp(t, apps.Postgres)
	if got := len(provedSites(r)); got != 0 {
		t.Errorf("proved sites = %d, want 0\n%s", got, r)
	}
	if len(r.Hints) != 0 {
		t.Errorf("hints = %d, want none", len(r.Hints))
	}
}

// TestSynthReportDeterministic: the ranked report is byte-identical across
// fresh runs of the whole pipeline.
func TestSynthReportDeterministic(t *testing.T) {
	for _, app := range []apps.App{apps.Agrep, apps.Gnuld, apps.XDataSlice, apps.Postgres} {
		var prev string
		for trial := 0; trial < 5; trial++ {
			b, err := apps.Build(app, apps.TestScale())
			if err != nil {
				t.Fatal(err)
			}
			r, err := analysis.Synthesize(b.Original, analysis.Config{})
			if err != nil {
				t.Fatal(err)
			}
			got := r.String()
			if trial > 0 && got != prev {
				t.Fatalf("%v: report differs between runs:\n--- run %d\n%s\n--- previous\n%s", app, trial, got, prev)
			}
			prev = got
		}
	}
}

// TestSynthRejectsTransformed: the pipeline only accepts untransformed
// binaries (shadow code would alias read sites).
func TestSynthRejectsTransformed(t *testing.T) {
	b, err := apps.Build(apps.Agrep, apps.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analysis.Synthesize(b.Transformed, analysis.Config{}); err == nil {
		t.Fatal("Synthesize accepted a transformed program")
	}
}

func TestSynthVerify(t *testing.T) {
	_, r := synthApp(t, apps.Gnuld)
	ps := provedSites(r)
	if len(ps) != 1 {
		t.Fatalf("proved sites = %d", len(ps))
	}
	pc := ps[0].PC
	clean := analysis.DynVerifyStats{
		Sites: map[int64]analysis.DynSiteStats{
			pc: {Calls: 12, DataCalls: 12, Hinted: 12},
		},
		HintCalls:    int64(len(r.Hints)),
		MatchedCalls: int64(len(r.Hints)),
	}
	if fs := r.Verify(clean); len(fs) != 0 {
		t.Errorf("clean run produced findings: %v", fs)
	}

	cases := []struct {
		name string
		d    analysis.DynVerifyStats
		want string
	}{
		{"unconsumed", analysis.DynVerifyStats{
			Sites:     map[int64]analysis.DynSiteStats{pc: {Calls: 12, DataCalls: 12, Hinted: 12}},
			HintCalls: 12, MatchedCalls: 10,
		}, "never fully consumed"},
		{"bypassed", analysis.DynVerifyStats{
			Sites:     map[int64]analysis.DynSiteStats{pc: {Calls: 12, DataCalls: 12, Hinted: 12}},
			HintCalls: 12, MatchedCalls: 12, BypassedSegs: 3,
		}, "bypassed"},
		{"unhinted-reads", analysis.DynVerifyStats{
			Sites:     map[int64]analysis.DynSiteStats{pc: {Calls: 12, DataCalls: 12, Hinted: 7}},
			HintCalls: 12, MatchedCalls: 12,
		}, "arrived hinted"},
		{"site-never-ran", analysis.DynVerifyStats{
			Sites:     map[int64]analysis.DynSiteStats{},
			HintCalls: 12, MatchedCalls: 12,
		}, "never executed"},
	}
	for _, c := range cases {
		fs := r.Verify(c.d)
		if len(fs) == 0 {
			t.Errorf("%s: no findings", c.name)
			continue
		}
		joined := ""
		for _, f := range fs {
			if f.Check != analysis.LintStaticHint {
				t.Errorf("%s: finding check = %q, want %q", c.name, f.Check, analysis.LintStaticHint)
			}
			joined += f.Msg + "\n"
		}
		if !strings.Contains(joined, c.want) {
			t.Errorf("%s: findings %q missing %q", c.name, joined, c.want)
		}
	}
}

// TestSynthHintOrderInterleaves: two proved sites bound to the same loop
// must interleave by iteration (the dynamic run consumes iteration i of both
// before iteration i+1 of either).
func TestSynthHintOrderInterleaves(t *testing.T) {
	_, r := synthApp(t, apps.Agrep)
	// Agrep has one site; simulate the ordering contract on the report's
	// hint list directly: iterations must be non-decreasing.
	last := int64(-1)
	for _, h := range r.Hints {
		if h.Iter < last {
			t.Fatalf("hint order regressed: iter %d after %d\n%v", h.Iter, last, r.Hints)
		}
		last = h.Iter
	}
}

// TestSynthPriorsMonotone pins the confidence→prior mapping the TIP layer
// consumes.
func TestSynthPriorsMonotone(t *testing.T) {
	if !(analysis.ConfProved.Prior() > analysis.ConfBounded.Prior() &&
		analysis.ConfBounded.Prior() > analysis.ConfSpecOnly.Prior()) {
		t.Errorf("priors not monotone: %v %v %v",
			analysis.ConfProved.Prior(), analysis.ConfBounded.Prior(), analysis.ConfSpecOnly.Prior())
	}
	for _, c := range []analysis.Confidence{analysis.ConfSpecOnly, analysis.ConfBounded, analysis.ConfProved} {
		if p := c.Prior(); p <= 0 || p > 1 {
			t.Errorf("%v prior %v out of (0,1]", c, p)
		}
		if s := c.String(); s == "" || strings.Contains(s, "?") {
			t.Errorf("%v has no printable name", c)
		}
	}
	_ = fmt.Sprint(analysis.Confidence(99)) // must not panic
}
