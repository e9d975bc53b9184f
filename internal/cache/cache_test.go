package cache

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAcquireCompleteTouch(t *testing.T) {
	c := New(4)
	b := c.Acquire(10, OriginDemand, NoHint)
	if b == nil || b.State() != InTransit {
		t.Fatal("Acquire did not return an in-transit block")
	}
	if got := c.Get(10); got != b {
		t.Fatal("Get did not find acquired block")
	}
	c.Complete(10)
	if b.State() != Valid {
		t.Fatal("Complete did not mark block valid")
	}
	c.Touch(10)
	st := c.Stats()
	if st.Hits != 1 || st.Reuses != 0 {
		t.Fatalf("stats = %+v, want 1 hit 0 reuses", st)
	}
	c.Touch(10)
	if c.Stats().Reuses != 1 {
		t.Fatalf("second touch not counted as reuse: %+v", c.Stats())
	}
}

func TestAcquirePresentPanics(t *testing.T) {
	c := New(4)
	c.Acquire(1, OriginDemand, NoHint)
	defer func() {
		if recover() == nil {
			t.Fatal("double Acquire did not panic")
		}
	}()
	c.Acquire(1, OriginDemand, NoHint)
}

func TestWaitersRunOnComplete(t *testing.T) {
	c := New(4)
	c.Acquire(5, OriginHint, 3)
	n := 0
	c.Wait(5, func(int64, bool) { n++ })
	c.Wait(5, func(int64, bool) { n++ })
	c.Complete(5)
	if n != 2 {
		t.Fatalf("waiters run = %d, want 2", n)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(3)
	for _, lb := range []int64{1, 2, 3} {
		c.Acquire(lb, OriginDemand, NoHint)
		c.Complete(lb)
	}
	// Touch 1 so 2 becomes LRU.
	c.Touch(1)
	b := c.Acquire(4, OriginDemand, NoHint)
	if b == nil {
		t.Fatal("Acquire failed with evictable blocks present")
	}
	if c.Get(2) != nil {
		t.Fatal("LRU block 2 not evicted")
	}
	if c.Get(1) == nil || c.Get(3) == nil {
		t.Fatal("wrong block evicted")
	}
}

func TestInTransitNeverEvicted(t *testing.T) {
	c := New(2)
	c.Acquire(1, OriginDemand, NoHint) // in transit
	c.Acquire(2, OriginDemand, NoHint) // in transit
	if c.Acquire(3, OriginDemand, NoHint) != nil {
		t.Fatal("Acquire succeeded with only in-transit blocks cached")
	}
}

func TestHintedBlockProtectedFromPrefetch(t *testing.T) {
	c := New(1)
	c.Acquire(1, OriginHint, 5)
	c.Complete(1)
	// A prefetch for a block needed *later* (dist 10) must not evict one
	// needed sooner (dist 5).
	if c.Acquire(2, OriginHint, 10) != nil {
		t.Fatal("further-future prefetch evicted nearer hinted block")
	}
	// A prefetch for a block needed sooner may evict it.
	if c.Acquire(3, OriginHint, 2) == nil {
		t.Fatal("nearer prefetch could not evict further hinted block")
	}
	if c.Get(1) != nil {
		t.Fatal("hinted block 1 still present")
	}
}

func TestDemandAlwaysEvictsHinted(t *testing.T) {
	c := New(1)
	c.Acquire(1, OriginHint, 2)
	c.Complete(1)
	if c.Acquire(9, OriginDemand, NoHint) == nil {
		t.Fatal("demand fetch could not evict hinted block")
	}
}

func TestUnhintedPreferredOverHinted(t *testing.T) {
	c := New(2)
	c.Acquire(1, OriginHint, 1)
	c.Complete(1)
	c.Acquire(2, OriginDemand, NoHint)
	c.Complete(2)
	if c.Acquire(3, OriginHint, 50) == nil {
		t.Fatal("acquire failed")
	}
	if c.Get(2) != nil {
		t.Fatal("unhinted block survived while hinted was evicted")
	}
	if c.Get(1) == nil {
		t.Fatal("hinted block evicted despite unhinted candidate")
	}
}

func TestUnusedPrefetchAccounting(t *testing.T) {
	c := New(2)
	c.Acquire(1, OriginHint, 1)
	c.Complete(1)
	c.Acquire(2, OriginReadahead, NoHint)
	c.Complete(2)
	c.SetHintFor(1, 0, NoHint) // hint cancelled
	// Evict both via demand fetches.
	c.Acquire(3, OriginDemand, NoHint)
	c.Acquire(4, OriginDemand, NoHint)
	st := c.Stats()
	if st.UnusedHint != 1 || st.UnusedRA != 1 {
		t.Fatalf("unused = hint %d ra %d, want 1 1", st.UnusedHint, st.UnusedRA)
	}
	if st.EvictedClean != 2 {
		t.Fatalf("EvictedClean = %d, want 2", st.EvictedClean)
	}
}

func TestUsedPrefetchNotCountedUnused(t *testing.T) {
	c := New(1)
	c.Acquire(1, OriginHint, 1)
	c.Complete(1)
	c.Touch(1)
	c.SetHintFor(1, 0, NoHint)
	c.Acquire(2, OriginDemand, NoHint)
	if st := c.Stats(); st.UnusedHint != 0 {
		t.Fatalf("used prefetched block counted unused: %+v", st)
	}
}

func TestFlushAccountingCountsResidentUnused(t *testing.T) {
	c := New(4)
	c.Acquire(1, OriginHint, 1)
	c.Complete(1)
	c.Acquire(2, OriginReadahead, NoHint)
	c.Complete(2)
	c.Acquire(3, OriginHint, 2)
	c.Complete(3)
	c.Touch(3)
	c.FlushAccounting()
	st := c.Stats()
	if st.UnusedHint != 1 || st.UnusedRA != 1 {
		t.Fatalf("flush unused = hint %d ra %d, want 1 1", st.UnusedHint, st.UnusedRA)
	}
}

func TestPartialWaitAccounting(t *testing.T) {
	c := New(4)
	c.Acquire(7, OriginHint, 1)
	c.NoteDemandWait(7)
	c.NoteDemandWait(7) // same block: still one partial
	if st := c.Stats(); st.PartialWaits != 1 {
		t.Fatalf("PartialWaits = %d, want 1", st.PartialWaits)
	}
	c.Complete(7)
	c.Touch(7)
	st := c.Stats()
	if st.Reuses != 0 {
		t.Fatalf("Reuses = %d, want 0 (first access is not a reuse)", st.Reuses)
	}
	if st.FullyPref != 0 {
		t.Fatalf("FullyPref = %d, want 0 (block was only partially prefetched)", st.FullyPref)
	}
	// Demand waits on demand-origin blocks are not "partial prefetches".
	c.Acquire(8, OriginDemand, NoHint)
	c.NoteDemandWait(8)
	if got := c.Stats().PartialWaits; got != 1 {
		t.Fatalf("PartialWaits = %d after demand-origin wait, want 1", got)
	}
}

func TestFullyPrefetchedAccounting(t *testing.T) {
	c := New(4)
	c.Acquire(1, OriginHint, 0)
	c.Complete(1)
	c.Touch(1)
	if st := c.Stats(); st.FullyPref != 1 {
		t.Fatalf("FullyPref = %d, want 1", st.FullyPref)
	}
	// Demand-origin blocks never count as fully prefetched.
	c.Acquire(2, OriginDemand, NoHint)
	c.Complete(2)
	c.Touch(2)
	if st := c.Stats(); st.FullyPref != 1 {
		t.Fatalf("FullyPref = %d after demand touch, want 1", st.FullyPref)
	}
}

func TestDropInTransit(t *testing.T) {
	c := New(4)
	c.Acquire(1, OriginHint, 0)
	c.Drop(1)
	if c.Get(1) != nil || c.Len() != 0 {
		t.Fatal("Drop did not remove block")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Drop of absent block did not panic")
		}
	}()
	c.Drop(1)
}

func TestCapacityRespected(t *testing.T) {
	c := New(8)
	for lb := int64(0); lb < 100; lb++ {
		b := c.Acquire(lb, OriginDemand, NoHint)
		if b == nil {
			t.Fatalf("Acquire(%d) failed", lb)
		}
		c.Complete(lb)
		if c.Len() > c.Capacity() {
			t.Fatalf("Len %d exceeds capacity %d", c.Len(), c.Capacity())
		}
	}
}

func TestForEachVisitsAll(t *testing.T) {
	c := New(4)
	c.Acquire(1, OriginDemand, NoHint)
	c.Acquire(2, OriginHint, 1)
	c.Complete(2)
	seen := map[int64]bool{}
	c.ForEach(func(b *Block) { seen[b.LB] = true })
	if !seen[1] || !seen[2] || len(seen) != 2 {
		t.Fatalf("ForEach saw %v", seen)
	}
}

// Property: under any interleaving of acquire/complete/touch, the number of
// cached blocks never exceeds capacity, and hits+misses accounting stays
// consistent (hits >= reuses).
func TestPropertyCapacityInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New(4)
		inTransit := map[int64]bool{}
		next := int64(0)
		for _, op := range ops {
			switch op % 3 {
			case 0: // acquire new block
				next++
				if c.Get(next) == nil {
					if b := c.Acquire(next, Origin(op%3), int64(op)); b != nil {
						inTransit[next] = true
					}
				}
			case 1: // complete one in-transit block
				for lb := range inTransit {
					c.Complete(lb)
					delete(inTransit, lb)
					break
				}
			case 2: // touch a valid block
				for lb := int64(1); lb <= next; lb++ {
					if b := c.Get(lb); b != nil && b.State() == Valid {
						c.Touch(lb)
						break
					}
				}
			}
			if c.Len() > c.Capacity() {
				return false
			}
		}
		st := c.Stats()
		return st.Reuses <= st.Hits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBlockSize: a Block fits the 96-byte allocation class. A field that
// pushes it past costs every buffer of every cache a larger slot.
func TestBlockSize(t *testing.T) {
	if n := unsafe.Sizeof(Block{}); n > 96 {
		t.Errorf("a Block takes %d bytes, want <= 96", n)
	}
}
