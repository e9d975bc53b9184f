package bench

import (
	"fmt"
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

// TestReplayNeverSlower is the never-slower wall on the modern apps: the LSM
// mix and the ML shard loader at the two batch sizes bench/perf's
// replay_modern runs (16 KB over one epoch, 128 KB over two), hinted by
// speculation and by hand, on 1, 2, 4 and 10 disks, each finish within 2% of
// the original run. The 128 KB loader on two disks read 1.16 here while a
// disk served a queued stripe unit from its last block backwards. One disk
// holds only because a hinted prefetch brings along the blocks read-ahead
// streams from the track buffer for the original (tip's ride-alongs).
func TestReplayNeverSlower(t *testing.T) {
	const wall = 1.02
	ml16, ml128 := apps.TestScale(), apps.TestScale()
	ml16.MLShard.ReadSize, ml16.MLShard.Epochs = 16<<10, 1
	ml128.MLShard.ReadSize, ml128.MLShard.Epochs = 128<<10, 2
	for _, g := range []struct {
		name  string
		app   apps.App
		scale apps.Scale
	}{{"LSM", apps.LSM, apps.TestScale()}, {"MLShard16KB", apps.MLShard, ml16}, {"MLShard128KB", apps.MLShard, ml128}} {
		for _, disks := range []int{1, 2, 4, 10} {
			t.Run(fmt.Sprintf("%s/disks=%d", g.name, disks), func(t *testing.T) {
				t.Parallel()
				c := Cell{App: g.app, Scale: g.scale, Disks: disks}
				orig, err := c.Run()
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []core.Mode{core.ModeSpeculating, core.ModeManual} {
					c.Mode = mode
					st, err := c.Run()
					if err != nil {
						t.Fatal(err)
					}
					ratio := float64(st.Elapsed) / float64(orig.Elapsed)
					t.Logf("%v: %.3f of the original", mode, ratio)
					if ratio > wall {
						t.Errorf("%v took %.3f of the original's %d cycles, want <= %.2f", mode, ratio, orig.Elapsed, wall)
					}
				}
			})
		}
	}
}
