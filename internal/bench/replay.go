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
	BucketsOK      bool    `json:"buckets_sum_ok"`
}

// RoundTripResult reports one capture→replay differential comparison.
type RoundTripResult struct {
	App       string `json:"app"`
	Reads     int    `json:"reads"`   // demand reads in the captured stream
	Records   int    `json:"records"` // trace records after normalization
	Exact     bool   `json:"exact"`   // replay reproduced the block sequence
	BucketsOK bool   `json:"buckets_sum_ok"`
}

// ReplayReport is the replay family's report; the smoke job jq-checks its
// JSON.
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
// the fidelity currency: they cost the disk arm exactly the same.
func roundTrip(app apps.App, scale apps.Scale) (*RoundTripResult, error) {
	capture := &trace.Capture{}
	st1, b, err := Run(app, core.ModeNoHint, scale, func(c *core.Config) { c.Capture = capture })
	if err != nil {
		return nil, err
	}
	tr := capture.Trace()

	prog, err := asm.Assemble(trace.Source(tr, false))
	if err != nil {
		return nil, fmt.Errorf("bench: %v captured trace failed to compile: %w", app, err)
	}
	recap := &trace.Capture{}
	cfg := core.DefaultConfig(core.ModeNoHint)
	cfg.Capture = recap
	sys, err := core.New(cfg, prog, b.FS)
	if err != nil {
		return nil, err
	}
	st2, err := sys.Run()
	if err != nil {
		return nil, fmt.Errorf("bench: %v replay run: %w", app, err)
	}

	orig, replay := tr.Reads(), recap.Trace().Reads()
	exact := len(orig) == len(replay)
	if exact {
		for i := range orig {
			if orig[i].Path != replay[i].Path || orig[i].Off != replay[i].Off || orig[i].Len != replay[i].Len {
				exact = false
				break
			}
		}
	}
	return &RoundTripResult{
		App:     app.String(),
		Reads:   len(orig),
		Records: len(tr.Recs),
		Exact:   exact,
		BucketsOK: st1.Buckets.Total() == int64(st1.Elapsed) &&
			st2.Buckets.Total() == int64(st2.Elapsed),
	}, nil
}

// replayGrid runs every modern app in every mode across the worker pool.
func replayGrid(scale apps.Scale) ([]*core.RunStats, error) {
	return parMap(len(ModernApps)*len(replayModes), func(j int) (*core.RunStats, error) {
		st, _, err := Run(ModernApps[j/len(replayModes)], replayModes[j%len(replayModes)], scale, nil)
		return st, err
	})
}

// replay is the registry entry: the who-wins grid over the modern apps
// plus the capture→replay differential for the paper trio.
func replay(scale apps.Scale) (Report, error) {
	grid, err := replayGrid(scale)
	if err != nil {
		return nil, err
	}
	rep := &ReplayReport{Schema: "tipbench-replay/v1", Scale: scale.Name}
	for i, app := range ModernApps {
		base := grid[i*len(replayModes)]
		for j, mode := range replayModes {
			st := grid[i*len(replayModes)+j]
			if st.ExitCode != base.ExitCode {
				return nil, fmt.Errorf("bench: %v %v exit %d != original %d",
					app, mode, st.ExitCode, base.ExitCode)
			}
			rep.Points = append(rep.Points, ReplayPoint{
				App:            app.String(),
				Mode:           mode.String(),
				ElapsedCycles:  int64(st.Elapsed),
				Seconds:        st.Seconds(),
				ImprovementPct: Improvement(base, st),
				ReadCalls:      st.ReadCalls,
				HintedReads:    st.HintedReads,
				BucketsOK:      st.Buckets.Total() == int64(st.Elapsed),
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
		if !rt.Exact {
			return nil, fmt.Errorf("bench: %s capture→replay round trip not exact (%d reads)",
				rt.App, rt.Reads)
		}
		if !rt.BucketsOK {
			return nil, fmt.Errorf("bench: %s round-trip stall buckets do not sum to elapsed", rt.App)
		}
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
	t2.row("Benchmark", "Reads", "Records", "Block-exact", "BucketsSum")
	for _, rt := range rep.RoundTrip {
		t2.row(rt.App, fmt.Sprint(rt.Reads), fmt.Sprint(rt.Records),
			fmt.Sprintf("%v", rt.Exact), fmt.Sprintf("%v", rt.BucketsOK))
	}
	return t.Text() + "\n" + t2.Text()
}
