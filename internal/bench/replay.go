package bench

// The replay experiment: trace-replay programs (internal/trace) as
// first-class benchmark citizens. It answers two questions the paper's
// suite cannot:
//
//  1. Who wins on modern access patterns? The LSM compaction mix and the
//     ML shard loader are readahead-hostile workloads the 1999 suite has
//     no analogue for; the experiment runs them in all four modes.
//  2. Is capture→replay lossless? For every canonical app the experiment
//     captures the original run's read stream, compiles the trace back
//     into a program, replays it, and demands a block-for-block identical
//     disk access sequence. A mismatch fails the experiment, not just a
//     row.

import (
	"fmt"

	"spechint/internal/apps"
	"spechint/internal/asm"
	"spechint/internal/core"
	"spechint/internal/trace"
)

// ModernApps are the replay-generated workloads; every replay row runs
// them, and the chaos and canon walls include them next to the paper trio.
var ModernApps = []apps.App{apps.LSM, apps.MLShard}

// replayModes is the fixed mode order of the who-wins grid.
var replayModes = [4]core.Mode{core.ModeNoHint, core.ModeSpeculating, core.ModeManual, core.ModeStatic}

// ReplayPoint is one (app, mode) cell of the who-wins grid.
type ReplayPoint struct {
	App            string  `json:"app"`
	Mode           string  `json:"mode"`
	ElapsedCycles  int64   `json:"elapsed_cycles"`
	Seconds        float64 `json:"seconds"`
	ImprovementPct float64 `json:"improvement_pct"` // vs the app's original-mode run
	ReadCalls      int64   `json:"read_calls"`
	HintedReads    int64   `json:"hinted_reads"`
}

// RoundTripResult reports one capture→replay differential comparison. It
// exists only for an exact round trip whose runs' stall buckets both sum to
// their elapsed time; roundTrip fails on any other.
type RoundTripResult struct {
	App     string `json:"app"`
	Reads   int    `json:"reads"`   // demand reads in the captured stream
	Records int    `json:"records"` // trace records after normalization
}

// ReplayReport is the replay family's report.
type ReplayReport struct {
	Schema    string            `json:"schema"`
	Scale     string            `json:"scale"`
	Points    []ReplayPoint     `json:"points"`
	RoundTrip []RoundTripResult `json:"roundtrip"`
}

// roundTrip captures app's original-mode read stream, compiles the trace
// into a replay program, runs it over the same built workload, and compares
// the two read streams. Both runs lay their reads on one file system, so
// equal (path, offset, length) streams are equal logical-block sequences —
// the fidelity currency: they cost the disk arm exactly the same. A round
// trip that is not exact, or a run whose stall buckets do not sum to its
// elapsed time, is an error.
func roundTrip(app apps.App, scale apps.Scale) (*RoundTripResult, error) {
	p, err := prepare(Cell{App: app, Scale: scale})
	if err != nil {
		return nil, err
	}
	capture := &trace.Capture{}
	p.cfg.Capture = capture
	st1, err := p.run()
	if err != nil {
		return nil, err
	}
	tr := capture.Trace()

	prog, err := asm.Assemble(trace.Source(tr, false))
	if err != nil {
		return nil, fmt.Errorf("bench: %v captured trace failed to compile: %w", app, err)
	}
	recap := &trace.Capture{}
	p.prog, p.cfg.Capture = prog, recap
	st2, err := p.run()
	if err != nil {
		return nil, fmt.Errorf("bench: %v replay run: %w", app, err)
	}

	orig, replay := tr.Reads(), recap.Trace().Reads()
	exact := len(orig) == len(replay)
	for i := 0; exact && i < len(orig); i++ {
		exact = orig[i].Path == replay[i].Path && orig[i].Off == replay[i].Off && orig[i].Len == replay[i].Len
	}
	if !exact {
		return nil, fmt.Errorf("bench: %v capture→replay round trip not exact (%d reads)", app, len(orig))
	}
	if st1.Buckets.Total() != int64(st1.Elapsed) || st2.Buckets.Total() != int64(st2.Elapsed) {
		return nil, fmt.Errorf("bench: %v round-trip stall buckets do not sum to elapsed", app)
	}
	return &RoundTripResult{App: app.String(), Reads: len(orig), Records: len(tr.Recs)}, nil
}

// replay is the registry entry: the who-wins grid over the modern apps
// plus the capture→replay differential for the paper trio.
func replay(scale apps.Scale) (Report, error) {
	runs, err := runCells(grid(Cell{Scale: scale}, ModernApps, replayModes[:], setMode))
	if err != nil {
		return nil, err
	}
	rep := &ReplayReport{Schema: "tipbench-replay/v1", Scale: scale.Name}
	for i, app := range ModernApps {
		base := runs[i*len(replayModes)]
		for j, mode := range replayModes {
			st := runs[i*len(replayModes)+j]
			if st.ExitCode != base.ExitCode {
				return nil, fmt.Errorf("bench: %v %v exit %d != original %d",
					app, mode, st.ExitCode, base.ExitCode)
			}
			if st.Buckets.Total() != int64(st.Elapsed) {
				return nil, fmt.Errorf("bench: %v %v stall buckets do not sum to elapsed", app, mode)
			}
			rep.Points = append(rep.Points, ReplayPoint{
				App:            app.String(),
				Mode:           mode.String(),
				ElapsedCycles:  int64(st.Elapsed),
				Seconds:        st.Seconds(),
				ImprovementPct: Improvement(base, st),
				ReadCalls:      st.ReadCalls,
				HintedReads:    st.HintedReads,
			})
		}
	}
	trips, err := parMap(len(Apps), func(i int) (*RoundTripResult, error) {
		return roundTrip(Apps[i], scale)
	})
	if err != nil {
		return nil, err
	}
	for _, rt := range trips {
		rep.RoundTrip = append(rep.RoundTrip, *rt)
	}
	return rep, nil
}

func (rep *ReplayReport) Text() string {
	t := newTable("Trace replay: modern apps across all modes (4 disks)")
	t.row("Benchmark", "Mode", "Elapsed(s)", "Improvement", "HintedReads")
	for _, p := range rep.Points {
		t.row(p.App, p.Mode, fmt.Sprintf("%.2f", p.Seconds), pct(p.ImprovementPct),
			fmt.Sprintf("%d/%d", p.HintedReads, p.ReadCalls))
	}

	t2 := newTable("Capture→replay round trip (original mode)")
	t2.row("Benchmark", "Reads", "Records")
	for _, rt := range rep.RoundTrip {
		t2.row(rt.App, fmt.Sprint(rt.Reads), fmt.Sprint(rt.Records))
	}
	return t.Text() + "\n" + t2.Text()
}
