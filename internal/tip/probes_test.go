package tip

import (
	"fmt"
	"testing"
)

// TestPumpProbesPerRead is the deterministic gate on what a pass costs: one
// client discloses a 2,000-block file whole and reads it block by block. With
// every disk at its depth bound nearly all the time, a pass starts at the
// first block it has not fetched, asks the disk side (demoted? which disk?
// dead? a slot?) only until every disk is full again, and skips the rest of
// the window it has already examined: a few steps a read, where a pump that
// walks its 256-block window on every pass takes hundreds. MaxDepthPerDisk =
// 0 has no bound to be at: every disk always has a free slot, and a pass
// starts at the first block it has not fetched.
func TestPumpProbesPerRead(t *testing.T) {
	const blocks = 2000
	for _, tc := range []struct {
		disks, depth int
		maxSteps     float64 // per read: twice what this pump measures
	}{
		{disks: 1, depth: 8, maxSteps: 2 * 2.0},
		{disks: 4, depth: 8, maxSteps: 2 * 2.4},
		{disks: 1, depth: 0, maxSteps: 2 * 1.0},
		{disks: 4, depth: 0, maxSteps: 2 * 1.0},
	} {
		t.Run(fmt.Sprintf("disks=%d/depth=%d", tc.disks, tc.depth), func(t *testing.T) {
			dcfg := smallDisk()
			dcfg.NumDisks = tc.disks
			cfg := DefaultConfig()
			cfg.MaxDepthPerDisk = tc.depth
			r := newRig(t, cfg, dcfg)
			f := r.fs.MustCreate("f", make([]byte, blocks*dcfg.BlockSize))
			r.cli().HintSeg(f, 0, f.Size())
			for b := int64(0); b < blocks; b++ {
				r.readSync(t, f, b*int64(dcfg.BlockSize), int64(dcfg.BlockSize), true)
			}
			w := r.m.PumpWork()
			perRead := float64(w.Steps) / blocks
			t.Logf("%d walks, %d steps: %.1f steps/read, %d hint prefetches", w.Walks, w.Steps, perRead, r.m.Stats().HintPrefetches)
			if r.m.Stats().HintPrefetches < blocks*9/10 {
				t.Errorf("%d of %d blocks prefetched from the hint: the pump was not the one fetching", r.m.Stats().HintPrefetches, blocks)
			}
			if perRead > tc.maxSteps {
				t.Errorf("%.1f steps per read, want <= %.1f: a pass walks the window it has examined", perRead, tc.maxSteps)
			}
		})
	}
}
