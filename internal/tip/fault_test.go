package tip

import (
	"testing"

	"spechint/internal/cache"
	"spechint/internal/disk"
	"spechint/internal/fault"
	"spechint/internal/sim"
)

// failNPlan builds a plan where the first n attempts at every block fail
// transiently — the guaranteed-recovery pattern the retry machinery is
// validated against.
func failNPlan(n int) *fault.Plan {
	p := fault.NewPlan(1)
	p.FailN = n
	return p
}

func deadDiskPlan(dk int, at sim.Time) *fault.Plan {
	p := fault.NewPlan(1)
	p.DieDisk = dk
	p.DieAt = at
	return p
}

func TestDemandReadRetriesTransientFaults(t *testing.T) {
	cfg := smallTIP()
	cfg.ReadaheadMax = 0 // isolate the demand block from read-ahead traffic
	r := newRig(t, cfg, smallDisk())
	r.arr.SetInjector(failNPlan(3))
	f := r.fs.MustCreate("a", make([]byte, 4096))

	var gotErr error
	done := false
	if r.cli().Read(f, 0, 1024, false, func(err error) { done, gotErr = true, err }) {
		t.Fatal("miss read completed immediately")
	}
	for !done && r.clk.RunNext() {
	}
	if !done {
		t.Fatal("read never completed")
	}
	if gotErr != nil {
		t.Fatalf("read error %v; transient faults must be absorbed by retry", gotErr)
	}
	fc := r.m.Faults()
	if fc.FetchErrors != 3 || fc.FetchRetries != 3 {
		t.Fatalf("FetchErrors=%d FetchRetries=%d, want 3 and 3", fc.FetchErrors, fc.FetchRetries)
	}
	if fc.FailedDemand != 0 || fc.DemotedBlocks != 0 {
		t.Fatalf("demand retry leaked into FailedDemand=%d / DemotedBlocks=%d", fc.FailedDemand, fc.DemotedBlocks)
	}
}

func TestPrefetchDemotedAfterRepeatedFailures(t *testing.T) {
	cfg := smallTIP()
	cfg.MaxFetchRetries = 2
	r := newRig(t, cfg, smallDisk())
	r.arr.SetInjector(failNPlan(100)) // never recovers within the retry budget
	f := r.fs.MustCreate("a", make([]byte, 8192))

	r.cli().HintSeg(f, 0, 2048) // prefetch blocks 0 and 1
	r.clk.Drain()

	fc := r.m.Faults()
	if fc.DemotedBlocks == 0 {
		t.Fatalf("no blocks demoted under persistent failure: %+v", fc)
	}
	// Demoted blocks are released, not wedged in transit.
	if got := r.m.Cache().Stats().FailedLoads; got == 0 {
		t.Fatal("demotion did not resolve the in-transit blocks")
	}
	// The hinted pump must not resubmit demoted blocks.
	before := r.arr.Stats().PrefetchReqs
	r.m.pump()
	r.clk.Drain()
	if after := r.arr.Stats().PrefetchReqs; after != before {
		t.Fatalf("pump resubmitted demoted blocks: %d -> %d prefetches", before, after)
	}
}

func TestDemandReadClearsDemotion(t *testing.T) {
	cfg := smallTIP()
	cfg.MaxFetchRetries = 1
	r := newRig(t, cfg, smallDisk())
	plan := failNPlan(5)
	r.arr.SetInjector(plan)
	f := r.fs.MustCreate("a", make([]byte, 1024)) // one block: no ride-along follows it

	r.cli().HintSeg(f, 0, 1024)
	r.clk.Drain() // prefetch fails twice, block demoted
	if r.m.Faults().DemotedBlocks == 0 {
		t.Fatal("setup: block not demoted")
	}

	// The demand read fetches the block itself, retrying past the remaining
	// fail-N failures, and clears the demotion on success.
	if gotErr := func() error {
		var e error
		done := false
		if r.cli().Read(f, 0, 1024, true, func(err error) { done, e = true, err }) {
			return nil
		}
		for !done && r.clk.RunNext() {
		}
		if !done {
			t.Fatal("demand read of demoted block never completed")
		}
		return e
	}(); gotErr != nil {
		t.Fatalf("demand read failed: %v", gotErr)
	}
	if len(r.m.demoted) != 0 {
		t.Fatalf("demotion not cleared on success: %v", r.m.demoted)
	}
}

func TestDeadDiskSuppressesPrefetchKeepsDemand(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	r.arr.SetInjector(deadDiskPlan(0, 1))
	r.clk.Advance(10)
	f := r.fs.MustCreate("a", make([]byte, 8192))

	// Wake the array's death detection: the first touch of disk 0 marks it.
	var first error
	done := false
	r.cli().Read(f, 0, 1024, false, func(err error) { done, first = true, err }) // block 0 -> disk 0
	for !done && r.clk.RunNext() {
	}
	if first == nil {
		t.Fatal("demand read on a dead disk must fail")
	}
	if !r.m.Degraded() {
		t.Fatal("manager not degraded with a dead disk")
	}

	// Hints whose blocks map to the dead disk are skipped, not fetched: a
	// request submitted to a dead disk completes ErrDead and counts in
	// DeadReqs, so no prefetch reached it if that count stands still.
	onDead := 0
	for b := int64(0); b < f.NBlocks(); b++ {
		if r.arr.DiskOf(f.LogicalBlock(b)) == 0 {
			onDead++
		}
	}
	if onDead == 0 {
		t.Fatal("no hinted block maps to the dead disk")
	}
	before := r.arr.Stats()
	r.cli().HintSeg(f, 0, 8192)
	r.clk.Drain()
	if got := r.arr.Stats().DeadReqs; got != before.DeadReqs {
		t.Fatalf("%d requests reached the dead disk after it died", got-before.DeadReqs)
	}
	fc := r.m.Faults()
	// Blocks on the surviving disk still prefetch.
	if r.arr.Stats().PrefetchReqs == before.PrefetchReqs {
		t.Fatal("degraded mode stopped prefetching the surviving disk too")
	}
	if fc.FailedDemand != 1 {
		t.Fatalf("FailedDemand = %d, want 1", fc.FailedDemand)
	}
}

// TestCancelAllWithErroredInflightPrefetch is the satellite regression: a
// CANCEL_ALL racing an in-flight prefetch whose disk request errors must
// neither leak a pinned buffer nor double-complete the block.
func TestCancelAllWithErroredInflightPrefetch(t *testing.T) {
	cfg := smallTIP()
	cfg.MaxFetchRetries = 0 // first failure demotes immediately
	r := newRig(t, cfg, smallDisk())
	r.arr.SetInjector(failNPlan(1))
	f := r.fs.MustCreate("a", make([]byte, 1024)) // one block: no ride-along follows it

	c := r.m.NewClient()
	c.HintSeg(f, 0, 1024) // prefetch in flight, will error
	if r.m.Cache().Get(f.LogicalBlock(0)) == nil {
		t.Fatal("setup: no prefetch in transit")
	}
	c.CancelAll() // hints cancelled while the request is still in flight
	r.clk.Drain() // the errored completion lands after the cancel

	lb := f.LogicalBlock(0)
	if b := r.m.Cache().Get(lb); b != nil {
		t.Fatalf("errored prefetch left block %d in state %v after CANCEL_ALL", lb, b.State())
	}
	if n := r.m.Cache().Len(); n != 0 {
		t.Fatalf("%d buffers leaked", n)
	}
	// The errored block was demoted, so hints skip it; the eventual demand
	// read must fetch it from scratch (no stale inflight entry, no
	// double-completion panic from a late Done) and clear the demotion.
	c2 := r.m.NewClient()
	done, gotErr := false, error(nil)
	if !c2.Read(f, 0, 1024, false, func(err error) { done, gotErr = true, err }) {
		for !done && r.clk.RunNext() {
		}
		if !done {
			t.Fatal("demand read after cancel never completed")
		}
	}
	if gotErr != nil {
		t.Fatalf("demand read after cancel: %v", gotErr)
	}
	if b := r.m.Cache().Get(lb); b == nil || b.State() != cache.Valid {
		t.Fatal("block not cleanly refetchable after the errored/cancelled prefetch")
	}
	if len(r.m.demoted) != 0 {
		t.Fatal("demotion survived a successful demand fetch")
	}
}

// TestRetryBackoffCapped pins the virtual-time backoff schedule.
func TestRetryBackoffCapped(t *testing.T) {
	var c Config
	c.RetryBaseCycles = 100
	c.RetryCapCycles = 350
	want := []sim.Time{100, 200, 350, 350}
	for i, w := range want {
		if got := c.retryBackoff(i + 1); got != w {
			t.Fatalf("retryBackoff(%d) = %d, want %d", i+1, got, w)
		}
	}
	// Defaults apply when zero; huge attempts must not overflow.
	var d Config
	if got := d.retryBackoff(64); got != sim.Time(defaultRetryCap) {
		t.Fatalf("default capped backoff = %d, want %d", got, defaultRetryCap)
	}
}

var _ disk.Injector = (*fault.Plan)(nil)
