package tip

import (
	"fmt"
	"testing"
)

// TestPumpProbesPerRead is the deterministic gate on what a window step costs:
// one client discloses a 2,000-block file whole and reads it block by block.
// With every disk at its depth bound nearly all the time, a pass asks the disk
// side (demoted? which disk? dead? a slot?) only about the blocks before the
// one it starts, then stops asking; a pump that probes at every step asks
// about the whole 256-block window on every walk. MaxDepthPerDisk = 0 has no
// bound to be at, and must never take the short step.
func TestPumpProbesPerRead(t *testing.T) {
	const blocks = 2000
	for _, tc := range []struct {
		disks, depth int
		maxProbes    float64 // per read: twice what this pump measures
	}{
		{disks: 1, depth: 8, maxProbes: 2 * 8.0},
		{disks: 4, depth: 8, maxProbes: 2 * 33.0},
		{disks: 1, depth: 0},
		{disks: 4, depth: 0},
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
			walks, steps, probes := w.Walks, w.Steps, w.Probes
			perRead := float64(probes) / blocks
			t.Logf("%d walks, %d steps, %d probes: %.1f steps/read, %.1f probes/read, %d hint prefetches",
				walks, steps, probes, float64(steps)/blocks, perRead, r.m.Stats().HintPrefetches)
			if r.m.Stats().HintPrefetches < blocks*9/10 {
				t.Errorf("%d of %d blocks prefetched from the hint: the pump was not the one fetching", r.m.Stats().HintPrefetches, blocks)
			}
			if tc.depth == 0 {
				if probes != steps {
					t.Errorf("%d of %d steps probed the disks with no depth bound, want all", probes, steps)
				}
				return
			}
			if perRead > tc.maxProbes {
				t.Errorf("%.1f probes per read, want <= %.1f", perRead, tc.maxProbes)
			}
			if probes*4 > steps {
				t.Errorf("%d of %d steps probed the disks: the saturated pass is not being taken", probes, steps)
			}
		})
	}
}
