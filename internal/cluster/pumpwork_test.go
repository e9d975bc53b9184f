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
//     sessions whose inputs have not moved brought that to 154.5 and 198.2,
//     and a pass that starts at its session's frontier and skips what it has
//     examined while the disks are full takes 30.2 and 43.4.
//   - Visits: a pump that looks at every client slot on every event made 359
//     and 652 visits per hinted read at N=128 and 256 (17.17 and 28.29 of
//     them walks), and 163–527 per unhinted read with at most one walk;
//     visiting only the woken sessions makes it 20 and 32 hinted, under 1
//     unhinted.
//   - Partition sums: recomputing every session's share eagerly made two
//     passes over every slot per session open, close and accuracy change —
//     3.7–4.0 per hinted read, 2.1–2.5 unhinted; computing the shares when
//     the cache reads one makes it 0.53 and 0.62 hinted, 0 unhinted.
//
// The walks and steps are pinned exactly (per read: 19.78 and 29.8 at N=128,
// 31.00 and 42.7 at N=256; with no memo every visit to an open session is a
// walk). Which sessions the pump visits, and where a pass starts, is
// invisible to what it does; a change that moves these counts must say why
// that is so. An idle hook on the array, deleted, pumped again after every
// completion that left its disk idle (20.15 and 30.2, 31.68 and 43.4): it
// walked the sessions the completion's own pump had woken behind its cursor,
// which now walk at the next pump with whatever else woke them by then.
func TestPumpWorkPerRead(t *testing.T) {
	if testing.Short() {
		t.Skip("six benchmark-sized populations")
	}
	const (
		maxStepsPerRead          = 55 // the measured 43.4, plus a quarter
		maxHintedVisitsPerRead   = 64
		maxUnhintedVisitsPerRead = 8
		maxSumsPerRead           = 2
	)
	// walks, steps
	exact := map[string][2]int64{
		"N=128/capacity": {121557, 183159},
		"N=128/nohints":  {3298, 0},
		"N=128/overload": {3052, 0},
		"N=256/capacity": {380867, 524821},
		"N=256/nohints":  {6592, 0},
		"N=256/overload": {5609, 0},
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
					t.Logf("%d reads: per read %.2f walks, %.1f steps, %.1f visits, %.2f partition sums",
						res.Reads, per(w.Walks), per(w.Steps), per(w.Visits), per(w.PartitionSums))
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
					if got, want := [2]int64{w.Walks, w.Steps}, exact[fmt.Sprintf("N=%d/%s", n, arm)]; got != want {
						t.Errorf("walks, steps = %v, want %v", got, want)
					}
				})
			}
		})
	}
}
