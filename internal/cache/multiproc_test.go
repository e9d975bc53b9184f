package cache

import "testing"

// fill populates the cache with valid blocks so eviction paths are exercised.
func fillValid(t *testing.T, c *Cache, owner int, lbs []int64, origin Origin, dist func(i int) int64) {
	t.Helper()
	for i, lb := range lbs {
		if b := c.AcquireFor(owner, lb, origin, dist(i)); b == nil {
			t.Fatalf("AcquireFor(%d, %d) failed while filling", owner, lb)
		}
		c.Complete(lb)
	}
}

func TestUnhintedTrafficNeverEvictsOtherOwnersHints(t *testing.T) {
	c := New(4)
	// Owner 1 holds the whole cache as hinted blocks.
	fillValid(t, c, 1, []int64{10, 11, 12, 13}, OriginHint, func(i int) int64 { return int64(i) })

	// Owner 2's demand miss must NOT claim any of owner 1's hinted blocks.
	if b := c.AcquireFor(2, 20, OriginDemand, NoHint); b != nil {
		t.Fatal("demand fetch from owner 2 evicted owner 1's hinted block")
	}
	// Nor may owner 2's read-ahead.
	if b := c.AcquireFor(2, 21, OriginReadahead, NoHint); b != nil {
		t.Fatal("read-ahead from owner 2 evicted owner 1's hinted block")
	}
	if got := c.Stats().UnhintedCrossEvicts; got != 0 {
		t.Fatalf("UnhintedCrossEvicts = %d, want 0", got)
	}
	if got := c.HintedCount(1); got != 4 {
		t.Fatalf("owner 1 hinted count = %d, want 4 intact", got)
	}

	// Owner 1's own demand still reclaims its furthest hinted block — the
	// single-process rule is unchanged.
	if b := c.AcquireFor(1, 30, OriginDemand, NoHint); b == nil {
		t.Fatal("owner 1's demand could not reclaim its own hinted block")
	}
	if c.Get(13) != nil {
		// Furthest-distance block (dist 3) should be the victim.
		t.Error("victim was not the furthest hinted block")
	}
}

func TestHintedEvictionComparesMarginalBenefit(t *testing.T) {
	c := New(2)
	acc := map[int]float64{1: 1.0, 2: 0.25}
	c.SetAccuracyFn(func(owner int) float64 { return acc[owner] })

	// Owner 1 (accurate) at dist 3: benefit 1.0/4 = 0.25.
	// Owner 2 (sloppy) at dist 1: benefit 0.25/2 = 0.125 — least valuable.
	fillValid(t, c, 1, []int64{10}, OriginHint, func(int) int64 { return 3 })
	fillValid(t, c, 2, []int64{20}, OriginHint, func(int) int64 { return 1 })

	// Owner 1 hints at dist 2: benefit 1.0/3 ≈ 0.33 beats owner 2's 0.125
	// but not a hypothetical equal-accuracy dist comparison — the sloppy
	// owner's near block loses to the accurate owner's farther one.
	b := c.AcquireFor(1, 30, OriginHint, 2)
	if b == nil {
		t.Fatal("hinted fetch could not evict the least-beneficial block")
	}
	if c.Get(20) != nil {
		t.Error("victim was not the sloppy owner's block")
	}
	if c.Get(10) == nil {
		t.Error("accurate owner's farther block was evicted instead")
	}
	if got := c.Stats().CrossHintEvicts; got != 1 {
		t.Errorf("CrossHintEvicts = %d, want 1", got)
	}

	// An incoming block less beneficial than every resident block is refused.
	if b := c.AcquireFor(2, 40, OriginHint, 100); b != nil {
		t.Error("low-benefit hinted fetch displaced a more valuable block")
	}
}

func TestPartitionCapReclaimsOwnBlocks(t *testing.T) {
	c := New(8)
	caps := map[int]int{1: 2}
	c.SetPartitionFn(func(owner int) int { return caps[owner] })

	fillValid(t, c, 1, []int64{10, 11}, OriginHint, func(i int) int64 { return int64(i) })
	if got := c.HintedCount(1); got != 2 {
		t.Fatalf("hinted count = %d, want 2", got)
	}

	// At the cap: a nearer hint reclaims the owner's furthest block even
	// though the cache itself has free buffers.
	if b := c.AcquireFor(1, 12, OriginHint, 0); b == nil {
		t.Fatal("capped owner could not swap in a nearer block")
	}
	if c.Get(11) != nil {
		t.Error("furthest own block not evicted at the partition cap")
	}
	if got := c.HintedCount(1); got != 2 {
		t.Errorf("hinted count = %d after swap, want 2 (still at cap)", got)
	}

	// A farther hint than everything resident is refused at the cap.
	if b := c.AcquireFor(1, 13, OriginHint, 50); b != nil {
		t.Error("cap admitted a block farther than all residents")
	}

	// Lifting the cap admits it.
	caps[1] = 0
	if b := c.AcquireFor(1, 13, OriginHint, 50); b == nil {
		t.Error("uncapped owner refused a hinted block with free buffers")
	}
}

func TestSetHintForTransfersOwnership(t *testing.T) {
	c := New(4)
	b := c.AcquireFor(1, 10, OriginHint, 5)
	if b == nil {
		t.Fatal("acquire failed")
	}
	c.Complete(10)
	if c.HintedCount(1) != 1 || b.Owner != 1 {
		t.Fatalf("owner 1 should hold the block (count %d, owner %d)", c.HintedCount(1), b.Owner)
	}

	// Owner 2 re-protects the same block: accounting transfers.
	c.SetHintFor(10, 2, 3)
	if c.HintedCount(1) != 0 || c.HintedCount(2) != 1 || b.Owner != 2 {
		t.Errorf("transfer failed: counts 1=%d 2=%d owner=%d", c.HintedCount(1), c.HintedCount(2), b.Owner)
	}

	// Un-hinting releases owner 2's slot.
	c.SetHintFor(10, 0, NoHint)
	if c.HintedCount(2) != 0 {
		t.Errorf("count 2 = %d after unhint, want 0", c.HintedCount(2))
	}

	// Re-hinting an unhinted block assigns the hinting owner.
	c.SetHintFor(10, 0, 7)
	if c.HintedCount(0) != 1 || b.Owner != 0 {
		t.Errorf("re-hint: count 0 = %d owner = %d", c.HintedCount(0), b.Owner)
	}
}
