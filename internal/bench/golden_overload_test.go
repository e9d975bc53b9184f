package bench

import (
	"testing"

	"spechint/internal/apps"
)

// TestGoldenOverload byte-compares the test-scale overload sweep — both
// admission arms across the load axis plus the failover cell — against the
// committed canon. Everything the sweep exercises is under the diff: admission
// rulings, shed/retry/backoff schedules, breaker trips, the failover re-route
// and the conservation counters. Re-canonize deliberately with:
//
//	go test ./internal/bench -run GoldenOverload -update
func TestGoldenOverload(t *testing.T) {
	rep, err := overload(apps.TestScale())
	goldenReport(t, "overload_small.json", rep, err)
}

// TestOverloadAcceptance pins the figure the experiment exists to draw, on
// the same test-scale sweep the golden covers: with admission on, served p99
// at 4x offered load stays within 2x of the at-capacity (1x) p99 and goodput
// holds >= 90% of the curve's peak; the failover cell completes every session
// not lost to the detection window; every cell's counters conserve (checked
// inside overloadCell).
func TestOverloadAcceptance(t *testing.T) {
	points, err := overloadSweep(apps.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	var atCap, deep *OverloadPoint
	peak := 0.0
	for i := range points {
		pt := &points[i]
		if !pt.Shed || pt.Failover {
			continue
		}
		if pt.Goodput > peak {
			peak = pt.Goodput
		}
		if pt.Mult == 1 {
			atCap = pt
		}
		if pt.Mult == 4 {
			deep = pt
		}
	}
	if atCap == nil || deep == nil {
		t.Fatal("sweep missing the 1x or 4x shed-on cell")
	}
	if deep.ServedP99Ms > 2*atCap.ServedP99Ms {
		t.Errorf("shed-on p99 at 4x = %.1f ms, over 2x the at-capacity %.1f ms",
			deep.ServedP99Ms, atCap.ServedP99Ms)
	}
	if deep.Goodput < 0.9*peak {
		t.Errorf("shed-on goodput at 4x = %.1f r/s, under 90%% of peak %.1f", deep.Goodput, peak)
	}
	if atCap.FailedReads != 0 {
		t.Errorf("at-capacity cell lost %d reads; capacity should serve everything", atCap.FailedReads)
	}
	for _, pt := range points {
		if pt.Failover {
			if pt.FailedParts == 0 {
				t.Error("failover cell killed a shard but no part ever failed")
			}
			if pt.Reads == 0 || pt.DeadSeen == 0 {
				t.Errorf("failover cell looks inert: %+v", pt)
			}
		}
	}
}
