package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// CheckTolPct is the makespan drift tipbench -check tolerates, in percent.
const CheckTolPct = 10

// winMarginPct is the dead band for who-wins checks: a baseline
// improvement smaller than this is treated as a tie, so a borderline cell
// cannot flap the guard.
const winMarginPct = 2.0

// CheckMulti compares a fresh multi-sweep JSON against a committed
// baseline and returns an error describing every regression found:
//
//   - shape mismatches (different sweep sizes) fail outright;
//   - makespans (orig_sec, spec_sec) must be within tolPct percent of the
//     baseline, point by point;
//   - the paper-shape invariant must hold: wherever the baseline shows
//     speculation clearly beating the originals (Figure 3's who-wins
//     ordering, here improvement_pct > 2%), the fresh run must still show
//     speculation winning — a tolerance pass cannot excuse a flipped
//     winner.
//
// The simulation is deterministic, so on an unchanged tree fresh and
// baseline agree exactly; the tolerance exists so intentional model
// changes with small numeric drift do not trip the guard, while shape
// regressions always do.
func CheckMulti(fresh, baseline []byte, tolPct float64) error {
	var f, b MultiReport
	if err := json.Unmarshal(fresh, &f); err != nil {
		return fmt.Errorf("bench: check: fresh sweep: %v", err)
	}
	if err := json.Unmarshal(baseline, &b); err != nil {
		return fmt.Errorf("bench: check: baseline: %v", err)
	}
	if len(f.Points) != len(b.Points) {
		return fmt.Errorf("bench: check: sweep has %d points, baseline %d — regenerate the baseline with make bench",
			len(f.Points), len(b.Points))
	}

	var bad []string
	reject := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	for i, fp := range f.Points {
		bp := b.Points[i]
		if fp.N != bp.N {
			reject("point %d: N=%d, baseline N=%d", i, fp.N, bp.N)
			continue
		}
		if d := driftPct(fp.OrigSec, bp.OrigSec); d > tolPct {
			reject("N=%d: original makespan %.2fs drifted %.1f%% from baseline %.2fs (tolerance %g%%)",
				fp.N, fp.OrigSec, d, bp.OrigSec, tolPct)
		}
		if d := driftPct(fp.SpecSec, bp.SpecSec); d > tolPct {
			reject("N=%d: speculating makespan %.2fs drifted %.1f%% from baseline %.2fs (tolerance %g%%)",
				fp.N, fp.SpecSec, d, bp.SpecSec, tolPct)
		}
		if bp.ImprovementPct > winMarginPct && fp.ImprovementPct <= 0 {
			reject("N=%d: speculation no longer wins (improvement %.1f%%, baseline %.1f%%) — Figure 3 shape regression",
				fp.N, fp.ImprovementPct, bp.ImprovementPct)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench: check failed (%d regressions):\n  %s",
			len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}

// driftPct returns |fresh-base| as a percentage of base (0 if both zero).
func driftPct(fresh, base float64) float64 {
	if base == 0 {
		if fresh == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * math.Abs(fresh-base) / math.Abs(base)
}
