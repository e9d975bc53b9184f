package tip

import (
	"testing"

	"spechint/internal/cache"
)

func TestCancelAllScopedPerClient(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	fa := r.fs.MustCreate("a", make([]byte, 4096))
	fb := r.fs.MustCreate("b", make([]byte, 4096))
	ca := r.m.NewClient()
	cb := r.m.NewClient()

	ca.HintSeg(fa, 0, 2048)
	cb.HintSeg(fb, 0, 2048)
	r.clk.Drain() // let both prefetches land

	if !ca.Covered(fa, 0, 1024) || !cb.Covered(fb, 0, 1024) {
		t.Fatal("hints not live before cancel")
	}

	ca.CancelAll()

	if ca.Covered(fa, 0, 1024) {
		t.Error("A's hint survived A's CancelAll")
	}
	if !cb.Covered(fb, 0, 1024) {
		t.Error("B's hint was cancelled by A's CancelAll")
	}
	// A's prefetched blocks lost hint protection; B's kept it.
	if b := r.m.Cache().Get(fa.LogicalBlock(0)); b != nil && b.HintDist != cache.NoHint {
		t.Error("A's block still hint-protected after CancelAll")
	}
	if b := r.m.Cache().Get(fb.LogicalBlock(0)); b == nil || b.HintDist == cache.NoHint {
		t.Error("B's block lost hint protection to A's CancelAll")
	}
	// The cancel penalty lands on A's accuracy only.
	if ca.Accuracy() >= 1.0 {
		t.Errorf("A accuracy = %v after cancelled hints, want < 1", ca.Accuracy())
	}
	if cb.Accuracy() != 1.0 {
		t.Errorf("B accuracy = %v, want untouched 1.0", cb.Accuracy())
	}
	// Stats are scoped: the cancel call and cancelled segs belong to A.
	if st := ca.Stats(); st.CancelCalls != 1 || st.CancelledSegs != 1 {
		t.Errorf("A stats = %+v, want 1 cancel / 1 cancelled seg", st)
	}
	if st := cb.Stats(); st.CancelCalls != 0 || st.CancelledSegs != 0 {
		t.Errorf("B stats = %+v, want no cancel activity", st)
	}
	// The Manager aggregate still sees the union.
	if st := r.m.Stats(); st.HintCalls != 2 || st.CancelCalls != 1 {
		t.Errorf("aggregate stats = %+v, want 2 hints / 1 cancel", st)
	}
}

func TestAccuracyScopedPerClient(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	ca := r.m.NewClient()
	cb := r.m.NewClient()

	for i := 0; i < 8; i++ {
		ca.accObserve(false, 1)
		cb.accObserve(true, 1)
	}
	if ca.Accuracy() != 0 {
		t.Errorf("A accuracy = %v, want 0", ca.Accuracy())
	}
	if cb.Accuracy() != 1 {
		t.Errorf("B accuracy = %v, want 1", cb.Accuracy())
	}
	// Horizons scale per client.
	if h := ca.effHorizon(); h != r.m.cfg.MinHorizon {
		t.Errorf("A effHorizon = %d, want MinHorizon %d", h, r.m.cfg.MinHorizon)
	}
	if h := cb.effHorizon(); h != r.m.cfg.Horizon {
		t.Errorf("B effHorizon = %d, want full %d", h, r.m.cfg.Horizon)
	}
}

func TestReadaheadStopsAtEOF(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	// 3 blocks of 1024; read them sequentially so the run ramps up, ending
	// exactly at EOF. Read-ahead must never prefetch past the last block.
	f := r.fs.MustCreate("f", make([]byte, 3*1024))

	r.readSync(t, f, 0, 1024, false)
	r.readSync(t, f, 1024, 1024, false)
	r.readSync(t, f, 2048, 1024, false)
	r.clk.Drain()

	st := r.m.Stats()
	// The only prefetchable blocks are 1 and 2 (block 0 was the first demand
	// read); anything more would be past EOF.
	if st.RAPrefetches > 2 {
		t.Fatalf("RAPrefetches = %d, want <= 2 (file has 3 blocks)", st.RAPrefetches)
	}
	for b := int64(0); b < f.NBlocks(); b++ {
		if blk := r.m.Cache().Get(f.LogicalBlock(b)); blk == nil {
			t.Errorf("block %d not cached after sequential scan", b)
		}
	}

	// Reading the final bytes again keeps the run state pinned at EOF; this
	// must not panic or issue phantom fetches.
	before := r.m.Stats().RAPrefetches
	r.readSync(t, f, 2048, 1024, false)
	r.clk.Drain()
	if after := r.m.Stats().RAPrefetches; after != before {
		t.Errorf("re-read at EOF issued %d new RA prefetches", after-before)
	}
}

func TestHintAfterCancelAllRedisclosure(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 2048))
	c := r.m.NewClient()

	c.HintSeg(f, 0, 1024)
	r.clk.Drain()
	lb := f.LogicalBlock(0)
	if b := r.m.Cache().Get(lb); b == nil || b.HintDist == cache.NoHint {
		t.Fatal("hinted block not prefetched/protected")
	}

	c.CancelAll()
	if b := r.m.Cache().Get(lb); b == nil || b.HintDist != cache.NoHint {
		t.Fatal("CancelAll did not strip hint protection")
	}
	if c.Covered(f, 0, 1024) {
		t.Fatal("hint still covered after CancelAll")
	}

	// Re-disclose the same range: the resident block regains protection
	// without a second disk fetch, and a subsequent read consumes the hint.
	prefBefore := c.Stats().HintPrefetches
	c.HintSeg(f, 0, 1024)
	if !c.Covered(f, 0, 1024) {
		t.Fatal("re-disclosed hint not covered")
	}
	if b := r.m.Cache().Get(lb); b == nil || b.HintDist == cache.NoHint {
		t.Fatal("re-disclosed hint did not re-protect the cached block")
	}
	if got := c.Stats().HintPrefetches; got != prefBefore {
		t.Errorf("re-disclosure refetched a resident block (%d new prefetches)", got-prefBefore)
	}

	done := false
	if !c.Read(f, 0, 1024, true, func(error) { done = true }) {
		for !done {
			if !r.clk.RunNext() {
				t.Fatal("read never completed")
			}
		}
	}
	st := c.Stats()
	if st.HintedReadCalls != 1 || st.MatchedCalls != 1 {
		t.Errorf("stats = %+v, want the re-disclosed hint matched", st)
	}
	if st.CancelledSegs != 1 {
		t.Errorf("CancelledSegs = %d, want 1 (only the original)", st.CancelledSegs)
	}
}

func TestClientCloseReleasesProtection(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 2048))
	ca := r.m.NewClient()
	cb := r.m.NewClient()
	_ = cb

	ca.HintSeg(f, 0, 2048)
	r.clk.Drain()
	accBefore := ca.Accuracy()

	ca.Close()
	for b := int64(0); b < f.NBlocks(); b++ {
		if blk := r.m.Cache().Get(f.LogicalBlock(b)); blk != nil && blk.HintDist != cache.NoHint {
			t.Errorf("block %d still protected after Close", b)
		}
	}
	if r.m.Cache().HintedCount(ca.ID()) != 0 {
		t.Errorf("hinted count = %d after Close, want 0", r.m.Cache().HintedCount(ca.ID()))
	}
	// Close is not a cancel: no accuracy penalty.
	if ca.Accuracy() != accBefore {
		t.Errorf("accuracy changed on Close: %v -> %v", accBefore, ca.Accuracy())
	}
	// Hints after Close are dropped silently.
	ca.HintSeg(f, 0, 1024)
	if ca.Covered(f, 0, 1024) {
		t.Error("closed client accepted a hint")
	}
}

func TestPartitionsOnlyWithMultipleClients(t *testing.T) {
	// Horizon as deep as the cache so partition caps, not the prefetch
	// horizon, are the binding constraint.
	cfg := Config{CacheBlocks: 16, Horizon: 16, MinHorizon: 2}
	r := newRig(t, cfg, smallDisk())
	ca := r.m.NewClient()
	// One open client: unpartitioned, exactly like the single-process paper
	// configuration.
	f := r.fs.MustCreate("f", make([]byte, 16*1024))
	ca.HintSeg(f, 0, 16*1024)
	r.clk.Drain()
	if n := r.m.Cache().HintedCount(ca.ID()); n <= r.m.cfg.CacheBlocks/2 {
		t.Fatalf("single client capped at %d hinted blocks; want most of the cache", n)
	}

	// A second client triggers partitioning: neither may monopolise.
	cb := r.m.NewClient()
	g := r.fs.MustCreate("g", make([]byte, 16*1024))
	cb.HintSeg(g, 0, 16*1024)
	r.clk.Drain()
	total := r.m.Cache().Capacity()
	if n := r.m.Cache().HintedCount(cb.ID()); n >= total*3/4 {
		t.Errorf("client B holds %d/%d hinted blocks despite partitioning", n, total)
	}
}

// HintBatch discloses several future reads in one call — Table 2's batched
// TIPIO_SEG form. Speculative execution discovers reads one at a time and
// never uses it (as the paper notes), but manually modified applications
// can.
func (c *Client) HintBatch(segs []Seg) {
	for _, sg := range segs {
		c.HintSeg(sg.File, sg.Off, sg.N)
	}
}
