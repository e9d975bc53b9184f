package tip

import (
	"testing"

	"spechint/internal/cache"
	"spechint/internal/disk"
	"spechint/internal/fsim"
)

// TestRideAlong is the ride-along rule, case by case: a hinted prefetch of a
// segment's last block brings in the blocks after it in its file, as many as
// the segment has (ReadaheadMax at most), while they stay on its disk, are
// neither cached nor in flight, and the cache has a free buffer for the rest
// of the file. Every case also holds that a ride-along evicts nothing and
// takes no depth slot.
func TestRideAlong(t *testing.T) {
	for _, c := range []struct {
		name   string
		disks  int   // array width; a stripe unit is two blocks
		cache  int   // cache blocks
		depth  int   // MaxDepthPerDisk (0: unbounded)
		blocks int64 // file size in blocks
		setup  func(t *testing.T, r *rig, f *fsim.File)
		demand bool    // an unhinted demand read of the segment instead of a hint
		off, n int64   // the hinted segment, in blocks
		want   []int64 // the file blocks fetched as ride-alongs
	}{
		{name: "follows the segment", disks: 1, cache: 16, blocks: 8, off: 0, n: 2, want: []int64{2, 3}},
		{name: "one-block segment", disks: 1, cache: 16, blocks: 8, off: 0, n: 1, want: []int64{1}},
		{name: "capped by ReadaheadMax", disks: 1, cache: 64, blocks: 16, off: 0, n: 6, want: []int64{6, 7, 8, 9}},
		{name: "stops at the end of the file", disks: 1, cache: 16, blocks: 8, off: 5, n: 2, want: []int64{7}},
		{name: "last block of the file", disks: 1, cache: 16, blocks: 8, off: 6, n: 2},
		{name: "within the stripe unit", disks: 2, cache: 16, blocks: 8, off: 0, n: 1, want: []int64{1}},
		{name: "next block on another disk", disks: 2, cache: 16, blocks: 8, off: 1, n: 1},
		{name: "room for the rest of the file", disks: 1, cache: 9, blocks: 8, off: 0, n: 1, want: []int64{1}},
		{name: "no room for the rest of the file", disks: 1, cache: 8, blocks: 8, off: 0, n: 1},
		{name: "next block cached", disks: 1, cache: 16, blocks: 8, off: 0, n: 1,
			setup: func(t *testing.T, r *rig, f *fsim.File) { r.readSync(t, f, 1024, 1024, false) }},
		{name: "next block in flight", disks: 1, cache: 16, blocks: 8, off: 0, n: 2,
			setup: func(t *testing.T, r *rig, f *fsim.File) { r.m.NewClient().HintSeg(f, 2048, 1024) }},
		{name: "stops at a cached block", disks: 1, cache: 16, blocks: 8, off: 0, n: 2, want: []int64{2},
			setup: func(t *testing.T, r *rig, f *fsim.File) { r.readSync(t, f, 3*1024, 1024, false) }},
		{name: "last block beyond the horizon", disks: 1, cache: 32, blocks: 16, off: 0, n: 12},
		{name: "dead disk", disks: 1, cache: 16, blocks: 8, off: 0, n: 1,
			setup: func(t *testing.T, r *rig, f *fsim.File) {
				r.arr.SetInjector(deadDiskPlan(0, 1))
				r.clk.Advance(10) // dead, and not yet found so: the hinted block's Submit finds it
			}},
		{name: "demand read", disks: 1, cache: 16, blocks: 8, off: 0, n: 1, demand: true},
		{name: "takes no depth slot", disks: 1, cache: 16, depth: 1, blocks: 8, off: 0, n: 1, want: []int64{1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := smallTIP()
			cfg.CacheBlocks, cfg.MaxDepthPerDisk, cfg.ReadaheadMax = c.cache, c.depth, 4
			dc := smallDisk()
			dc.NumDisks = c.disks
			r := newRig(t, cfg, dc)
			f := r.fs.MustCreate("f", make([]byte, c.blocks*1024))
			if f.LogicalBlock(0)%2 != 0 {
				t.Fatal("setup: the file does not start a stripe unit")
			}
			if c.setup != nil {
				c.setup(t, r, f)
			}
			before := r.m.Stats().RideAlongs
			if c.demand {
				r.cli().Read(f, c.off*1024, c.n*1024, false, func(error) {})
			} else {
				r.cli().HintSeg(f, c.off*1024, c.n*1024)
			}
			if got := r.m.Stats().RideAlongs - before; got != int64(len(c.want)) {
				t.Fatalf("%d ride-alongs, want %d (%v)", got, len(c.want), c.want)
			}
			for _, b := range c.want {
				lb := f.LogicalBlock(b)
				if fe := r.m.fetches[lb]; fe == nil || !fe.RideAlong {
					t.Errorf("block %d: no ride-along in flight", b)
				}
				if blk := r.m.cache.Get(lb); blk == nil || blk.Origin != cache.OriginReadahead || blk.HintPos != cache.NoHint {
					t.Errorf("block %d: not an unhinted read-ahead buffer: %+v", b, blk)
				}
			}
			queued := 0
			for _, fe := range r.m.fetches {
				if fe.Pri == disk.Prefetch && fe.queued && !fe.RideAlong {
					queued++
				}
			}
			if r.m.prefDepth[0] != queued {
				t.Errorf("depth %d on disk 0 with %d hinted prefetches queued: a ride-along took a slot", r.m.prefDepth[0], queued)
			}
			r.clk.Drain()
			if ev := r.m.cache.Stats().EvictedClean; ev != 0 {
				t.Errorf("%d blocks evicted", ev)
			}
		})
	}
}
