package bench

import (
	"testing"

	"spechint/internal/apps"
	"spechint/internal/core"
)

// TestReplayRoundTrip is the capture→replay differential wall: for every
// canonical app, replaying the captured trace must touch the disk with a
// block-for-block identical access sequence, and both runs' stall buckets
// must sum to their elapsed time.
func TestReplayRoundTrip(t *testing.T) {
	for _, app := range Apps {
		app := app
		t.Run(app.String(), func(t *testing.T) {
			t.Parallel()
			rt, err := roundTrip(app, apps.TestScale())
			if err != nil {
				t.Fatal(err)
			}
			if rt.Reads == 0 {
				t.Fatal("captured no reads; round trip is vacuous")
			}
			if !rt.Exact {
				t.Errorf("replayed disk access sequence diverged (%d reads, %d records)",
					rt.Reads, rt.Records)
			}
			if !rt.BucketsOK {
				t.Error("stall buckets do not sum to elapsed")
			}
		})
	}
}

// TestReplayModernWhoWins pins the headline result: on the readahead-hostile
// modern apps, speculation must beat the original run.
func TestReplayModernWhoWins(t *testing.T) {
	for _, app := range ModernApps {
		app := app
		t.Run(app.String(), func(t *testing.T) {
			t.Parallel()
			orig, _, err := Run(app, core.ModeNoHint, apps.TestScale(), nil)
			if err != nil {
				t.Fatal(err)
			}
			spec, _, err := Run(app, core.ModeSpeculating, apps.TestScale(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if spec.ExitCode != orig.ExitCode {
				t.Fatalf("speculating exit %d != original %d", spec.ExitCode, orig.ExitCode)
			}
			if spec.Elapsed >= orig.Elapsed {
				t.Errorf("speculating (%d cycles) does not beat original (%d)",
					spec.Elapsed, orig.Elapsed)
			}
			if spec.HintedReads == 0 {
				t.Error("speculating run hinted no reads")
			}
		})
	}
}

// TestGoldenReplay byte-compares the test-scale replay report against the
// committed canon; re-canonize deliberately with:
//
//	go test ./internal/bench -run GoldenReplay -update
func TestGoldenReplay(t *testing.T) {
	rep, err := replay(apps.TestScale())
	goldenReport(t, "replay_small.json", rep, err)
	// The canon itself must carry the headline shape: speculation wins on
	// every modern app and every round trip is exact.
	canon := rep.(*ReplayReport)
	for _, p := range canon.Points {
		if p.Mode == "speculating" && p.ImprovementPct <= 0 {
			t.Errorf("%s: canonical speculating improvement %.1f%% is not positive",
				p.App, p.ImprovementPct)
		}
		if !p.BucketsOK {
			t.Errorf("%s/%s: canonical stall buckets do not sum", p.App, p.Mode)
		}
	}
	for _, rt := range canon.RoundTrip {
		if !rt.Exact {
			t.Errorf("%s: canonical round trip not exact", rt.App)
		}
	}
}
