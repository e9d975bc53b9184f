package bench

import (
	"fmt"

	"spechint/internal/analysis"
	"spechint/internal/apps"
	"spechint/internal/core"
	"spechint/internal/par"
)

// Synth returns the static hint synthesis of the bundle's original binary.
func Synth(b *apps.Bundle) (*analysis.SynthReport, error) {
	r, err := analysis.Synthesize(b.Original)
	if err != nil {
		return nil, fmt.Errorf("bench: %v synthesize: %w", b.App, err)
	}
	return r, nil
}

// synthTable holds each (app, scale)'s synthesis, made by the first static
// cell or static table that asks (synthFor): the two share one.
var synthTable = par.NewCache[Cell, *analysis.SynthReport]()

// synthFor returns the synthesis of app's original binary at scale.
func synthFor(app apps.App, scale apps.Scale) (*analysis.SynthReport, error) {
	return synthTable.Get(Cell{App: app, Scale: scale}, func() (*analysis.SynthReport, error) {
		b, err := apps.Build(app, scale)
		if err != nil {
			return nil, err
		}
		return Synth(b)
	})
}

// StaticHints converts a synthesis report into the form
// core.Config.StaticHints consumes: one disclosure per synthesized hint, in
// consumption order.
func StaticHints(r *analysis.SynthReport) []core.StaticHint {
	out := make([]core.StaticHint, 0, len(r.Hints))
	for _, h := range r.Hints {
		out = append(out, core.StaticHint{Path: h.Path, Off: h.Off, N: h.N})
	}
	return out
}

// DynStats projects a finished run's statistics into the shape
// analysis.SynthReport.Verify audits: per-site read counters plus the TIP
// hint-consumption totals.
func DynStats(st *core.RunStats) analysis.DynVerifyStats {
	d := analysis.DynVerifyStats{
		Sites:        make(map[int64]analysis.DynSiteStats, len(st.ReadSites)),
		HintCalls:    st.Tip.HintCalls,
		MatchedCalls: st.Tip.MatchedCalls,
		BypassedSegs: st.Tip.BypassedSegs,
	}
	for pc, s := range st.ReadSites {
		d.Sites[pc] = analysis.DynSiteStats{Calls: s.Calls, DataCalls: s.DataCalls, Hinted: s.Hinted}
	}
	return d
}

// static compares statically synthesized hints (internal/analysis.Synthesize
// compiled into start-of-run disclosures) against the original and manual
// runs for every benchmark app. Unlike speculation, static mode adds no code
// to the application, so its SpecOverhead is zero by construction; the table
// asserts that, and also self-audits the synthesis: every emitted hint is
// verified against the run's dynamic read-site statistics, and a hint the
// run never consumed fails the experiment.
func static(scale apps.Scale) (Report, error) {
	t := newTable("Static hint synthesis: original vs static vs manual (4 disks)")
	t.row("Benchmark", "Proved", "SpecOnly", "Hints", "HintedReads",
		"Static impr.", "Manual impr.", "SpecOverhead")

	modes := []core.Mode{core.ModeNoHint, core.ModeStatic, core.ModeManual}
	stats, err := runCells(grid(Cell{Scale: scale}, Apps, modes, setMode))
	if err != nil {
		return nil, err
	}

	for i, app := range Apps {
		orig, static, manual := stats[3*i], stats[3*i+1], stats[3*i+2]
		if static.ExitCode != orig.ExitCode {
			return nil, fmt.Errorf("bench: %v static exit %d != original %d",
				app, static.ExitCode, orig.ExitCode)
		}
		if static.Buckets.SpecOverhead != 0 {
			return nil, fmt.Errorf("bench: %v static charged %d overhead cycles, want 0",
				app, static.Buckets.SpecOverhead)
		}
		synth, err := synthFor(app, scale)
		if err != nil {
			return nil, err
		}
		// Self-audit: the synthesized hints must square with what the run did.
		if findings := synth.Verify(DynStats(static)); len(findings) != 0 {
			return nil, fmt.Errorf("bench: %v static hints failed dynamic verification: %v",
				app, findings)
		}

		counts := synth.ConfCounts()
		t.row(app.String(),
			fmt.Sprint(counts[analysis.ConfProved]),
			fmt.Sprint(counts[analysis.ConfSpecOnly]),
			fmt.Sprint(len(synth.Hints)),
			fmt.Sprintf("%d/%d", static.HintedReads, static.ReadCalls),
			pct(Improvement(orig, static)),
			pct(Improvement(orig, manual)),
			fmt.Sprint(static.Buckets.SpecOverhead))
	}
	return t, nil
}
