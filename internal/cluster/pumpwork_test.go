package cluster

import (
	"fmt"
	"testing"

	"spechint/internal/clients"
)

// TestPumpWorkPerRead is the scaling gate wall-clock cannot be in tier-1: on
// the populations bench/perf's cluster_overload draws — hinted at capacity,
// unhinted at capacity, unhinted at four times the arrival rate — what the
// hint pumps do per client read is bounded however many sessions are open.
//
//   - Block-steps: a pump that walks every open session's window on every
//     event examined 3,241 per read at N=128 and 5,746 at N=256; skipping the
//     sessions whose inputs have not moved brings that to 150–200.
//   - Visits: a pump that looks at every client slot on every event made 359
//     and 652 visits per hinted read at N=128 and 256 (17.17 and 28.29 of
//     them walks), and 163–527 per unhinted read with at most one walk;
//     visiting only the woken sessions makes it 26 and 39 hinted, under 1
//     unhinted.
//   - Partition sums: recomputing every session's share eagerly made two
//     passes over every slot per session open, close and accuracy change —
//     3.7–4.0 per hinted read, 2.1–2.5 unhinted; computing the shares when
//     the cache reads one makes it 0.53 and 0.62 hinted, 0 unhinted.
//
// The walks, steps and probes are the parent's exactly (per read: 17.17 /
// 154.5 / 89.7 at N=128 and 28.29 / 198.2 / 114.5 at N=256): which sessions
// the pump visits is invisible to what they do. A change that moves them
// changes the walk order and must say why that is invisible.
func TestPumpWorkPerRead(t *testing.T) {
	if testing.Short() {
		t.Skip("six benchmark-sized populations")
	}
	const (
		maxStepsPerRead          = 500
		maxHintedVisitsPerRead   = 64
		maxUnhintedVisitsPerRead = 8
		maxSumsPerRead           = 2
	)
	// walks, steps, probes
	exact := map[string][3]int64{
		"N=128/capacity": {105518, 949183, 551178},
		"N=128/nohints":  {4389, 0, 0},
		"N=128/overload": {4304, 0, 0},
		"N=256/capacity": {347572, 2435516, 1406533},
		"N=256/nohints":  {9133, 0, 0},
		"N=256/overload": {8790, 0, 0},
	}
	for _, n := range []int{128, 256} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			t.Parallel()
			for _, arm := range []string{"capacity", "nohints", "overload"} {
				t.Run(arm, func(t *testing.T) {
					cfg, arrival := DefaultConfig(4), int64(80_000_000)
					switch arm {
					case "nohints":
						cfg.Hints = false
					case "overload":
						cfg, arrival = OverloadConfig(4), 20_000_000
						cfg.Hints = false
					}
					pop, err := clients.Generate(clients.Config{
						N: n, Sessions: 8,
						Files: 96, FileBlocks: 96, BlockSize: 8192,
						SessionBlocks: 48, ReadBlocks: 8,
						ArrivalMean: arrival, ThinkMean: 20_000,
						ZipfS: 1.2, ZipfV: 1, Seed: 1778,
					})
					if err != nil {
						t.Fatal(err)
					}
					c, err := New(cfg, pop)
					if err != nil {
						t.Fatal(err)
					}
					res, err := c.Run()
					if err != nil {
						t.Fatal(err)
					}
					if err := res.Check(); err != nil {
						t.Fatal(err)
					}
					w := c.PumpWork()
					per := func(x int64) float64 { return float64(x) / float64(res.Reads) }
					t.Logf("%d reads: per read %.2f walks, %.1f steps, %.1f probes, %.1f visits, %.2f partition sums",
						res.Reads, per(w.Walks), per(w.Steps), per(w.Probes), per(w.Visits), per(w.PartitionSums))
					maxVisits := float64(maxUnhintedVisitsPerRead)
					if cfg.Hints {
						maxVisits = maxHintedVisitsPerRead
					}
					if per(w.Steps) > maxStepsPerRead {
						t.Errorf("%.0f pump block-steps per read, want <= %d", per(w.Steps), maxStepsPerRead)
					}
					if per(w.Visits) > maxVisits {
						t.Errorf("%.1f pump visits per read, want <= %.0f", per(w.Visits), maxVisits)
					}
					if per(w.PartitionSums) > maxSumsPerRead {
						t.Errorf("%.2f partition sums per read, want <= %d", per(w.PartitionSums), maxSumsPerRead)
					}
					if got, want := [3]int64{w.Walks, w.Steps, w.Probes}, exact[fmt.Sprintf("N=%d/%s", n, arm)]; got != want {
						t.Errorf("walks, steps, probes = %v, want %v", got, want)
					}
				})
			}
		})
	}
}
