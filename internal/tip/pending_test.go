package tip

import (
	"slices"
	"testing"

	"spechint/internal/cache"
)

// TestPendingDemandSurvivesReentrantRead: a demand fetch that found no buffer
// waits in pendingDemand. When a retry finds its block valid, the read
// completes inside the retry loop, and its done may issue a new read at once
// (the cluster's next queued part) whose misses join the same list. Every
// fetch the loop has yet to retry must survive those appends; one that is
// overwritten is lost, and its read never completes.
func TestPendingDemandSurvivesReentrantRead(t *testing.T) {
	r := newRig(t, Config{CacheBlocks: 1, Horizon: 8, MinHorizon: 2}, smallDisk())
	bs := int64(r.fs.BlockSize())
	f := r.fs.MustCreate("f", make([]byte, 8*bs))
	h, d := r.m.NewClient(), r.m.NewClient()

	// The one buffer holds block 0 under h's hint: d's demand fetches, which
	// may evict only unhinted blocks or d's own, find no buffer.
	h.HintSeg(f, 0, bs)
	r.clk.Drain()
	done := map[string]bool{}
	read := func(name string, first, n int64, then func()) {
		if d.Read(f, first*bs, n*bs, false, func(err error) {
			if err != nil {
				t.Errorf("read %s: %v", name, err)
			}
			done[name] = true
			if then != nil {
				then()
			}
		}) {
			t.Fatalf("read %s was served at once", name)
		}
	}
	// A's done reads blocks 3 and 4 (read C): two misses, appended while
	// the retry loop is still to reach B.
	read("A", 1, 1, func() { read("C", 3, 2, nil) })
	read("B", 2, 1, nil)

	// Block 1 turns valid under h's hint, as a prefetch would leave it,
	// without the retry a completion would run.
	h.CancelAll()
	if r.m.cache.AcquireFor(h.ID(), 1, cache.OriginHint, 0) == nil {
		t.Fatal("no buffer for block 1")
	}
	r.m.cache.Complete(1)

	r.m.retryPendingDemand()
	if !done["A"] {
		t.Fatal("read A did not complete on its retry")
	}
	var lbs []int64
	for _, p := range r.m.pendingDemand {
		lbs = append(lbs, p.lb)
	}
	if want := []int64{3, 4, 2}; !slices.Equal(lbs, want) {
		t.Fatalf("pending demand fetches after the retry = blocks %v, want %v (C's two misses, then B)", lbs, want)
	}

	// Once block 1 loses its hint, every pending read gets its buffer in turn.
	r.m.cache.SetHintFor(1, h.ID(), cache.NoHint)
	r.m.retryPendingDemand()
	r.clk.Drain()
	for _, name := range []string{"B", "C"} {
		if !done[name] {
			t.Errorf("read %s never completed", name)
		}
	}
}
