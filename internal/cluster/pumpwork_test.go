package cluster

import (
	"fmt"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/clients"
	"spechint/internal/core"
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
//     examined while the disks are full took 30.2 and 43.4; visiting only
//     the missing blocks on a disk with a free slot (Client.gaps) took 28.0
//     and 41.1, and 33.1 and 46.8 once a disk served a queued run from its
//     first block (the disks empty sooner, so more passes find a slot);
//     a session whose partition is full of its own blocks waiting for room
//     there (Manager.hungry) instead of walking at every pump takes 24.7
//     and 28.2.
//   - Visits: a pump that looks at every client slot on every event made 359
//     and 652 visits per hinted read at N=128 and 256 (17.17 and 28.29 of
//     them walks), and 163–527 per unhinted read with at most one walk;
//     visiting only the woken sessions made it 20 and 31 hinted, under 1
//     unhinted, and leaving the starved sessions out 14 and 17. Waking only
//     the sessions that can act makes it 6.26 and 7.14 hinted, and 0
//     unhinted: a freed slot pulls the sessions its disk turned away only
//     while it has the slot, and a full disk the starved sessions refused a
//     buffer on it only while it is full; a cache change wakes a session only
//     where it records a gap or a due position in its examined window (or
//     its window holds the block and it examined nothing, or it is a starved
//     owner); and a new session waits for its first hint.
//   - Partition sums: recomputing every session's share eagerly made two
//     passes over every slot per session open, close and accuracy change —
//     3.7–4.0 per hinted read, 2.1–2.5 unhinted; computing the shares when
//     the cache reads one made it 0.53 and 0.62 hinted, 0 unhinted; the
//     pump's look at the starved sessions when the shares move keeps it at
//     0.62 and 0.65.
//
// The walks, steps and visits are pinned exactly (per read: 6.26, 24.0 and
// 6.26 at N=128, 7.14, 27.6 and 7.14 at N=256; with no memo every visit to an
// open session is a walk, and the pump visits no closed one here). Which sessions the pump visits, and where a pass starts, is
// invisible to what it does; a change that moves these counts must say why
// that is so. An idle hook on the array, deleted, pumped again after every
// completion that left its disk idle (20.15 and 30.2, 31.68 and 43.4): it
// walked the sessions the completion's own pump had woken behind its cursor,
// which now walk at the next pump with whatever else woke them by then.
// Holding the distances of the blocks a pass passed by without reaching
// (deleted: a distance follows its stream's base unless consumed in transit)
// left more held blocks in windows, whose comparison moves with the base
// (Client.compare), and cost 4 walks and 25 steps more at N=128, 2 and 47 at
// N=256.
func TestPumpWorkPerRead(t *testing.T) {
	if testing.Short() {
		t.Skip("six benchmark-sized populations")
	}
	const (
		maxStepsPerRead          = 35 // the measured 27.6, plus a quarter
		maxHintedVisitsPerRead   = 9  // the measured 7.14, plus a quarter
		maxUnhintedVisitsPerRead = 1
		maxSumsPerRead           = 2
	)
	// walks, steps, visits
	exact := map[string][3]int64{
		"N=128/capacity": {38481, 147715, 38481},
		"N=128/nohints":  {0, 0, 0},
		"N=128/overload": {0, 0, 0},
		"N=256/capacity": {87737, 339132, 87737},
		"N=256/nohints":  {0, 0, 0},
		"N=256/overload": {0, 0, 0},
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
					if got, want := [3]int64{w.Walks, w.Steps, w.Visits}, exact[fmt.Sprintf("N=%d/%s", n, arm)]; got != want {
						t.Errorf("walks, steps, visits = %v, want %v", got, want)
					}
				})
			}
		})
	}
}

// TestSoloPumpWork pins what the pump does for one hinting process, manually
// hinted, on bench/perf's replay_modern cells: the LSM mix and the ML shard
// loader in 16 KB batches (half the shards, one epoch) and in 128 KB batches
// (two epochs), at full scale — at test scale the 128 KB loader makes eight
// reads. Before its reach a pass visits only the due positions and the
// missing blocks on a disk with a free slot (Client.gaps), so a change that
// walks resident blocks again moves these counts here instead of showing up
// as host time later. The pump that skipped by stripe geometry alone, and
// visited every resident block on a disk with a free slot, took 98.9, 37.7
// and 122.1 steps per read where this one takes 15.2, 3.0 and 32.0.
func TestSoloPumpWork(t *testing.T) {
	full := apps.FullScale()
	ml16, ml128 := full, full
	ml16.MLShard.ReadSize, ml16.MLShard.Epochs, ml16.MLShard.Shards = 16<<10, 1, full.MLShard.Shards/2
	ml128.MLShard.ReadSize, ml128.MLShard.Epochs = 128<<10, 2
	for _, c := range []struct {
		name         string
		app          apps.App
		scale        apps.Scale
		walks, steps int64
	}{
		{"LSM", apps.LSM, full, 5518, 10863},
		{"MLShard16KB", apps.MLShard, ml16, 6014, 6112},
		{"MLShard128KB", apps.MLShard, ml128, 18400, 32736},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, err := apps.Build(c.app, c.scale)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := core.New(core.DefaultConfig(core.ModeManual), b.Manual, b.FS)
			if err != nil {
				t.Fatal(err)
			}
			st, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			w := sys.TIP().PumpWork()
			t.Logf("%d reads: per read %.2f walks, %.2f steps", st.ReadCalls, float64(w.Walks)/float64(st.ReadCalls), float64(w.Steps)/float64(st.ReadCalls))
			if w.Walks != c.walks || w.Steps != c.steps {
				t.Errorf("walks, steps = %d, %d, want %d, %d", w.Walks, w.Steps, c.walks, c.steps)
			}
		})
	}
}
