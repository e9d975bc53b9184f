package bench

import (
	"testing"

	"spechint/internal/apps"
	"spechint/internal/core"
)

// TestDualCPUGnuldCauses reproduces the -exp mp deviation recorded in
// EXPERIMENTS.md: at full scale on ten disks, a second processor makes
// speculating Gnuld slower than one processor does. It logs both cells'
// counts by cause (run with -v) and holds the invariants both runs must
// keep: the same output, and stall buckets that sum to elapsed.
func TestDualCPUGnuldCauses(t *testing.T) {
	one := Cell{App: apps.Gnuld, Mode: core.ModeSpeculating, Scale: apps.FullScale(), Disks: 10}
	two := one
	two.DualCPU = true
	stats, err := runCells([]Cell{one, two})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stats {
		b := st.Buckets
		t.Logf("%d CPU: elapsed %.3f s, restarts %d, hint calls %d, inaccurate calls %d, unused hinted blocks %d, spec instrs %d, hinted stall %.3f s, unhinted stall %.3f s",
			i+1, st.Seconds(), st.Restarts, st.Tip.HintCalls, st.Tip.InaccurateCalls(), st.Cache.UnusedHint, st.SpecInstrs,
			float64(b.HintedStall)/core.CPUHz, float64(b.UnhintedStall)/core.CPUHz)
		if b.Total() != int64(st.Elapsed) {
			t.Errorf("%d CPU: buckets sum to %d, elapsed %d", i+1, b.Total(), st.Elapsed)
		}
	}
	if stats[0].ExitCode != stats[1].ExitCode {
		t.Errorf("exit codes differ: %d vs %d", stats[0].ExitCode, stats[1].ExitCode)
	}
}
