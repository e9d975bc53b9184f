package cache

import "testing"

// mustPanic asserts fn panics; negative coverage for every documented panic
// precondition in the cache API.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestFailResolvesInTransitToError(t *testing.T) {
	c := New(4)
	c.Acquire(5, OriginHint, 3)
	valid, invalid := 0, 0
	c.Wait(5, func(_ int64, ok bool) {
		if ok {
			valid++
		} else {
			invalid++
		}
	})
	c.Fail(5)
	if invalid != 1 || valid != 0 {
		t.Fatalf("waiter woken valid=%d invalid=%d, want 0/1", valid, invalid)
	}
	if c.Get(5) != nil {
		t.Fatal("failed block still cached")
	}
	if c.Stats().FailedLoads != 1 {
		t.Fatalf("FailedLoads = %d, want 1", c.Stats().FailedLoads)
	}
	// The buffer is free again: the same block can be re-acquired.
	if c.Acquire(5, OriginDemand, NoHint) == nil {
		t.Fatal("re-acquire after Fail returned nil")
	}
}

func TestFailReleasesHintPartitionSlot(t *testing.T) {
	c := New(4)
	c.SetPartitionFn(func(int) int { return 1 })
	c.Acquire(7, OriginHint, 2)
	if c.HintedCount(0) != 1 {
		t.Fatalf("HintedCount = %d, want 1", c.HintedCount(0))
	}
	c.Fail(7)
	if c.HintedCount(0) != 0 {
		t.Fatalf("HintedCount after Fail = %d, want 0", c.HintedCount(0))
	}
}

func TestFailPanicPreconditions(t *testing.T) {
	c := New(4)
	mustPanic(t, "Fail of absent block", func() { c.Fail(1) })
	c.Acquire(2, OriginDemand, NoHint)
	c.Complete(2)
	mustPanic(t, "Fail of valid block", func() { c.Fail(2) })
}

func TestPanicPreconditionsCoverEveryTransition(t *testing.T) {
	// Each documented panic precondition, against both Absent and the wrong
	// resident state.
	c := New(8)
	c.Acquire(1, OriginDemand, NoHint) // 1: InTransit
	c.Acquire(2, OriginDemand, NoHint)
	c.Complete(2) // 2: Valid

	mustPanic(t, "Complete of absent block", func() { c.Complete(99) })
	mustPanic(t, "Complete of valid block", func() { c.Complete(2) })
	mustPanic(t, "Wait on absent block", func() { c.Wait(99, func(int64, bool) {}) })
	mustPanic(t, "Wait on valid block", func() { c.Wait(2, func(int64, bool) {}) })
	mustPanic(t, "Touch of absent block", func() { c.Touch(99) })
	mustPanic(t, "Touch of in-transit block", func() { c.Touch(1) })
	mustPanic(t, "NoteDemandWait on absent block", func() { c.NoteDemandWait(99) })
	mustPanic(t, "NoteDemandWait on valid block", func() { c.NoteDemandWait(2) })
	mustPanic(t, "Drop of absent block", func() { c.Drop(99) })
	mustPanic(t, "Drop of valid block", func() { c.Drop(2) })
	c.Wait(1, func(int64, bool) {})
	mustPanic(t, "Drop of block with waiters", func() { c.Drop(1) })
	mustPanic(t, "Acquire of present block", func() { c.Acquire(1, OriginDemand, NoHint) })
	mustPanic(t, "zero-capacity cache", func() { New(0) })
}

func TestDemandedFlag(t *testing.T) {
	c := New(4)
	d := c.Acquire(1, OriginDemand, NoHint)
	if !d.Demanded() {
		t.Fatal("demand-origin block not Demanded")
	}
	p := c.Acquire(2, OriginHint, 0)
	if p.Demanded() {
		t.Fatal("fresh prefetch block Demanded")
	}
	c.NoteDemandWait(2)
	if !p.Demanded() {
		t.Fatal("NoteDemandWait did not mark the block Demanded")
	}
}
