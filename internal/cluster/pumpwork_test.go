package cluster

import (
	"fmt"
	"testing"

	"spechint/internal/clients"
)

// TestPumpWorkPerRead is the scaling gate wall-clock cannot be in tier-1: on
// the population bench/perf's cluster_overload draws, the hint pumps examine
// a bounded number of blocks per client read however many sessions are open.
// A pump that walks every open session's window on every event examined
// 3,241 per read at N=128 and 5,746 at N=256; skipping the sessions whose
// inputs have not moved brings that to 150–200.
func TestPumpWorkPerRead(t *testing.T) {
	if testing.Short() {
		t.Skip("two benchmark-sized populations")
	}
	const maxStepsPerRead = 500
	for _, n := range []int{128, 256} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			t.Parallel()
			pop, err := clients.Generate(clients.Config{
				N: n, Sessions: 8,
				Files: 96, FileBlocks: 96, BlockSize: 8192,
				SessionBlocks: 48, ReadBlocks: 8,
				ArrivalMean: 80_000_000, ThinkMean: 20_000,
				ZipfS: 1.2, ZipfV: 1, Seed: 1778,
			})
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(DefaultConfig(4), pop)
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
			walks, steps, probes := c.PumpWork()
			perRead := float64(steps) / float64(res.Reads)
			t.Logf("%d reads, %d walks, %d block-steps (%d probing the disks): %.0f steps/read, %.0f probes/read",
				res.Reads, walks, steps, probes, perRead, float64(probes)/float64(res.Reads))
			if perRead > maxStepsPerRead {
				t.Errorf("%.0f pump block-steps per read, want <= %d", perRead, maxStepsPerRead)
			}
		})
	}
}
