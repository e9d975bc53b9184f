package tip

import (
	"fmt"
	"maps"
	"testing"

	"spechint/internal/cache"
	"spechint/internal/disk"
	"spechint/internal/fsim"
	"spechint/internal/sim"
)

// rig bundles a small simulated system for tests.
type rig struct {
	clk *sim.Queue
	arr *disk.Array
	fs  *fsim.FS
	m   *Manager
	c   *Client
}

// cli returns the rig's own client, registered on first use so that a test
// which registers its clients itself sees no extra stream.
func (r *rig) cli() *Client {
	if r.c == nil {
		r.c = r.m.NewClient()
	}
	return r.c
}

func newRig(t *testing.T, cfg Config, diskCfg disk.Config) *rig {
	t.Helper()
	clk := sim.NewQueue()
	fs := fsim.New(diskCfg.BlockSize)
	arr, err := disk.New(clk, diskCfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(clk, arr, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, arr: arr, fs: fs, m: m}
}

func smallDisk() disk.Config {
	return disk.Config{
		NumDisks:       2,
		BlockSize:      1024,
		StripeUnit:     2048,
		PositionCycles: 1000,
		TransferCycles: 100,
		TrackBufCycles: 10,
		TrackBufBlocks: 4,
		DelayFactor:    1,
	}
}

func smallTIP() Config {
	return Config{CacheBlocks: 16, Horizon: 8, MinHorizon: 2, ReadaheadMax: 4}
}

// readSync performs a demand read and drains the clock until it completes,
// returning the virtual time consumed.
func (r *rig) readSync(t *testing.T, f *fsim.File, off, n int64, hinted bool) sim.Time {
	t.Helper()
	start := r.clk.Now()
	done := false
	if r.cli().Read(f, off, n, hinted, func(error) { done = true }) {
		return 0
	}
	for !done {
		if !r.clk.RunNext() {
			t.Fatal("read never completed: no pending events")
		}
	}
	return r.clk.Now() - start
}

func TestConfigValidate(t *testing.T) {
	good := smallTIP()
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{CacheBlocks: 0, Horizon: 8, MinHorizon: 2},
		{CacheBlocks: 4, Horizon: 0, MinHorizon: 2},
		{CacheBlocks: 4, Horizon: 8, MinHorizon: 0},
		{CacheBlocks: 4, Horizon: 8, MinHorizon: 9},
		{CacheBlocks: 4, Horizon: 8, MinHorizon: 2, ReadaheadMax: -1},
	}
	for i, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if DefaultConfig().validate() != nil {
		t.Error("DefaultConfig invalid")
	}
}

func TestDemandReadMissThenHit(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 4096))
	cfg := smallTIP()
	cfg.ReadaheadMax = 0 // isolate demand path
	r.m.cfg = cfg

	elapsed := r.readSync(t, f, 0, 1024, false)
	if elapsed == 0 {
		t.Fatal("first read was free; expected a disk fetch")
	}
	if r.cli().Read(f, 0, 1024, false, nil) != true {
		t.Fatal("second read of cached block was not immediate")
	}
	st := r.m.Stats()
	if st.ReadCalls != 2 || st.ReadBlocks != 2 || st.ReadBytes != 2048 {
		t.Fatalf("stats = %+v", st)
	}
	cs := r.m.Cache().Stats()
	// First read: 1 miss then a touch at completion; second read: 1 hit
	// that is also a reuse (second request served by the same buffer).
	if cs.Misses != 1 || cs.Hits != 2 || cs.Reuses != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss 2 hits 1 reuse", cs)
	}
}

func TestReadBeyondEOFIsImmediate(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 100))
	// Through Manager.Read: the default client is created on first use.
	if !r.m.Read(f, 100, 50, false, nil) {
		t.Fatal("EOF read was not immediate")
	}
	if !r.m.Read(f, 500, 50, false, nil) {
		t.Fatal("past-EOF read was not immediate")
	}
	if st := r.m.Stats(); st.ReadBlocks != 0 {
		t.Fatalf("EOF reads touched blocks: %+v", st)
	}
}

func TestHintPrefetchesWithinHorizon(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 20*1024))
	r.cli().HintSeg(f, 0, 20*1024) // 20 blocks, horizon is 8
	st := r.m.Stats()
	if st.HintCalls != 1 || st.HintBlocks != 20 {
		t.Fatalf("hint stats = %+v", st)
	}
	if st.HintPrefetches != 8 {
		t.Fatalf("HintPrefetches = %d, want horizon-bounded 8", st.HintPrefetches)
	}
	// As prefetches complete, the pump refills up to the horizon.
	r.clk.Drain()
	if got := r.m.Stats().HintPrefetches; got != 8 {
		// Nothing consumed, so the horizon still caps at 8 outstanding+done
		// of the first 8 distances.
		t.Fatalf("HintPrefetches after drain = %d, want 8", got)
	}
}

func TestHintConsumptionAdvancesHorizon(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 20*1024))
	for i := int64(0); i < 20; i++ {
		r.cli().HintSeg(f, i*1024, 1024)
	}
	r.clk.Drain()
	before := r.m.Stats().HintPrefetches
	r.readSync(t, f, 0, 1024, true)
	r.clk.Drain()
	after := r.m.Stats().HintPrefetches
	if after <= before {
		t.Fatalf("consuming a hint did not advance prefetching: %d -> %d", before, after)
	}
	st := r.m.Stats()
	if st.MatchedCalls != 1 {
		t.Fatalf("MatchedCalls = %d, want 1", st.MatchedCalls)
	}
}

func TestFullyPrefetchedRead(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 8*1024))
	r.cli().HintSeg(f, 0, 1024)
	r.clk.Drain() // let the prefetch finish
	if elapsed := r.readSync(t, f, 0, 1024, true); elapsed != 0 {
		t.Fatalf("hinted+prefetched read stalled %d cycles", elapsed)
	}
	if cs := r.m.Cache().Stats(); cs.FullyPref != 1 {
		t.Fatalf("FullyPref = %d, want 1", cs.FullyPref)
	}
}

func TestPartiallyPrefetchedRead(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 8*1024))
	r.cli().HintSeg(f, 0, 1024)
	// Read immediately, while the prefetch is still in transit.
	elapsed := r.readSync(t, f, 0, 1024, true)
	if elapsed == 0 {
		t.Fatal("read of in-transit block did not stall")
	}
	cs := r.m.Cache().Stats()
	if cs.PartialWaits != 1 || cs.FullyPref != 0 {
		t.Fatalf("cache stats = %+v, want 1 partial", cs)
	}
}

func TestCancelAllStopsPrefetchingAndUnprotectsBlocks(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 32*1024))
	r.cli().HintSeg(f, 0, 32*1024)
	r.cli().CancelAll()
	r.clk.Drain()
	st := r.m.Stats()
	if st.CancelCalls != 1 || st.CancelledSegs != 1 {
		t.Fatalf("cancel stats = %+v", st)
	}
	before := st.HintPrefetches
	r.clk.Drain()
	if got := r.m.Stats().HintPrefetches; got != before {
		t.Fatalf("prefetching continued after CancelAll: %d -> %d", before, got)
	}
	// Cached blocks lost hint protection.
	r.m.Cache().ForEach(func(b *cache.Block) {
		if b.HintPos != cache.NoHint {
			t.Fatalf("block %d still hint-protected after CancelAll", b.LB)
		}
	})
}

func TestBypassedSegmentsCountInaccurate(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 16*1024))
	r.cli().HintSeg(f, 0, 1024)    // wrong prediction
	r.cli().HintSeg(f, 4096, 1024) // matches the actual read
	r.readSync(t, f, 4096, 1024, true)
	st := r.m.Stats()
	if st.BypassedSegs != 1 || st.MatchedCalls != 1 {
		t.Fatalf("stats = %+v, want 1 bypassed 1 matched", st)
	}
	if st.InaccurateCalls() != 1 {
		t.Fatalf("InaccurateCalls = %d, want 1", st.InaccurateCalls())
	}
}

func TestAccuracyScalesHorizon(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	if h := r.cli().effHorizon(); h != 8 {
		t.Fatalf("initial effHorizon = %d, want full 8", h)
	}
	// Force poor recent accuracy: many bypassed, none matched.
	for i := 0; i < 100; i++ {
		r.cli().accObserve(false, 1)
	}
	if h := r.cli().effHorizon(); h != r.m.cfg.MinHorizon {
		t.Fatalf("effHorizon = %d with zero accuracy, want MinHorizon %d", h, r.m.cfg.MinHorizon)
	}
	for i := 0; i < 100; i++ {
		r.cli().accObserve(true, 1)
	}
	if h := r.cli().effHorizon(); h != 4 {
		t.Fatalf("effHorizon = %d at 50%% accuracy, want 4", h)
	}
	// The window decays: sustained good hints recover the horizon.
	for i := 0; i < 2000; i++ {
		r.cli().accObserve(true, 1)
	}
	if h := r.cli().effHorizon(); h < 7 {
		t.Fatalf("effHorizon = %d after recovery, want near full", h)
	}
}

func TestSequentialReadaheadGrowsWithRun(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 64*1024))
	// First sequential read: run=1 block, prefetch 1.
	r.readSync(t, f, 0, 1024, false)
	if got := r.m.Stats().RAPrefetches; got != 1 {
		t.Fatalf("after 1st read RAPrefetches = %d, want 1", got)
	}
	r.readSync(t, f, 1024, 1024, false)
	// run=2 -> depth 2 -> prefetch blocks 2 and 3 (block 1 came from RA#1).
	st := r.m.Stats()
	if st.RAPrefetches != 3 {
		t.Fatalf("after 2nd read RAPrefetches = %d, want 3", st.RAPrefetches)
	}
	// Nonsequential read resets the run to depth 1: one more prefetch.
	r.readSync(t, f, 40*1024, 1024, false)
	st = r.m.Stats()
	if st.RAPrefetches != 4 {
		t.Fatalf("after seek RAPrefetches = %d, want 4", st.RAPrefetches)
	}
}

func TestReadaheadCapped(t *testing.T) {
	cfg := smallTIP()
	cfg.CacheBlocks = 256
	cfg.ReadaheadMax = 4
	r := newRig(t, cfg, smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 200*1024))
	var pos int64
	for i := 0; i < 20; i++ {
		r.readSync(t, f, pos, 1024, false)
		pos += 1024
	}
	// Run length is 20 blocks but depth caps at 4: prefetches stay bounded.
	st := r.m.Stats()
	if st.RAPrefetches > 24 {
		t.Fatalf("RAPrefetches = %d, want <= 24 under cap", st.RAPrefetches)
	}
	if st.RAPrefetches < 4 {
		t.Fatalf("RAPrefetches = %d, want >= 4", st.RAPrefetches)
	}
}

func TestIgnoreHintsMode(t *testing.T) {
	cfg := smallTIP()
	cfg.IgnoreHints = true
	r := newRig(t, cfg, smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 16*1024))
	r.cli().HintSeg(f, 0, 16*1024)
	r.clk.Drain()
	st := r.m.Stats()
	if st.HintCalls != 1 {
		t.Fatalf("HintCalls = %d, want 1 (still counted)", st.HintCalls)
	}
	if st.HintPrefetches != 0 {
		t.Fatalf("HintPrefetches = %d, want 0 when ignoring hints", st.HintPrefetches)
	}
	// Hinted reads behave as unhinted: readahead applies, no consumption.
	r.readSync(t, f, 0, 1024, true)
	st = r.m.Stats()
	if st.HintedReadCalls != 0 || st.MatchedCalls != 0 {
		t.Fatalf("stats = %+v, want no hinted accounting", st)
	}
	if st.RAPrefetches == 0 {
		t.Fatal("readahead not invoked for ignored-hints read")
	}
}

func TestCachedRange(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 4096))
	if r.cli().CachedRange(f, 0, 1024) {
		t.Fatal("empty cache reported range cached")
	}
	r.readSync(t, f, 0, 1024, false)
	if !r.cli().CachedRange(f, 0, 1024) {
		t.Fatal("read block not reported cached")
	}
	if r.cli().CachedRange(f, 0, 2048) {
		t.Fatal("partially cached range reported cached")
	}
	// Degenerate ranges are trivially cached (no I/O needed).
	if !r.cli().CachedRange(f, 4096, 100) || !r.cli().CachedRange(f, 0, 0) {
		t.Fatal("degenerate range not trivially cached")
	}
}

func TestMultiBlockRead(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 8*1024))
	elapsed := r.readSync(t, f, 512, 3000, false) // spans blocks 0..3
	if elapsed == 0 {
		t.Fatal("multi-block read was free")
	}
	st := r.m.Stats()
	if st.ReadBlocks != 4 {
		t.Fatalf("ReadBlocks = %d, want 4", st.ReadBlocks)
	}
}

func TestDemandSharesInTransitPrefetch(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 1024)) // one block: no ride-along follows it
	r.cli().HintSeg(f, 0, 1024)
	// Demand read arrives while prefetch in transit; must not double-fetch.
	r.readSync(t, f, 0, 1024, true)
	ds := r.arr.Stats()
	if ds.DemandReqs != 0 || ds.PrefetchReqs != 1 {
		t.Fatalf("disk reqs = %+v, want the single prefetch", ds)
	}
}

func TestFinishRunFlushesUnused(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 8*1024))
	r.cli().HintSeg(f, 0, 2048)
	r.clk.Drain()
	r.m.FinishRun()
	if cs := r.m.Cache().Stats(); cs.UnusedHint != 2 {
		t.Fatalf("UnusedHint = %d, want 2", cs.UnusedHint)
	}
}

func TestManyFilesStress(t *testing.T) {
	cfg := Config{CacheBlocks: 64, Horizon: 32, MinHorizon: 4, ReadaheadMax: 8}
	r := newRig(t, cfg, smallDisk())
	var files []*fsim.File
	for i := 0; i < 20; i++ {
		files = append(files, r.fs.MustCreate(fmt.Sprintf("f%d", i), make([]byte, 10*1024)))
	}
	// Hint everything, then read everything in hinted order.
	for _, f := range files {
		for off := int64(0); off < f.Size(); off += 1024 {
			r.cli().HintSeg(f, off, 1024)
		}
	}
	for _, f := range files {
		for off := int64(0); off < f.Size(); off += 1024 {
			r.readSync(t, f, off, 1024, true)
		}
	}
	r.clk.Drain()
	r.m.FinishRun()
	st := r.m.Stats()
	if st.MatchedCalls != 200 {
		t.Fatalf("MatchedCalls = %d, want 200", st.MatchedCalls)
	}
	if st.InaccurateCalls() != 0 {
		t.Fatalf("InaccurateCalls = %d, want 0", st.InaccurateCalls())
	}
	cs := r.m.Cache().Stats()
	if cs.FullyPref+cs.PartialWaits+cs.Misses == 0 {
		t.Fatal("no fetch accounting recorded")
	}
	if r.m.Cache().Len() > 64 {
		t.Fatal("cache over capacity")
	}
}

func TestPrefetchDepthBound(t *testing.T) {
	cfg := smallTIP()
	cfg.MaxDepthPerDisk = 1
	cfg.Horizon = 8
	r := newRig(t, cfg, smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 32*1024)) // 32 blocks over 2 disks
	r.cli().HintSeg(f, 0, 32*1024)
	// At most 1 outstanding prefetch per disk: 2 issued immediately.
	if got := r.m.Stats().HintPrefetches; got != 2 {
		t.Fatalf("HintPrefetches = %d at depth 1 on 2 disks, want 2", got)
	}
	r.clk.Drain()
	// Completions refill the pipeline up to the horizon.
	if got := r.m.Stats().HintPrefetches; got != 8 {
		t.Fatalf("HintPrefetches after drain = %d, want horizon 8", got)
	}
}

// TestRefusedPrefetchLeavesNoTrace: a prefetch TIP refuses because its disk is
// at the depth bound takes no buffer, so it evicts nothing. The cache is full
// of unhinted Valid blocks — any buffer taken would evict one of them — and
// every disk holds its one prefetch when the new hint arrives.
func TestRefusedPrefetchLeavesNoTrace(t *testing.T) {
	cfg := smallTIP()
	cfg.MaxDepthPerDisk = 1
	cfg.ReadaheadMax = 0
	r := newRig(t, cfg, smallDisk())
	bs := int64(r.fs.BlockSize())
	filler := r.fs.MustCreate("filler", make([]byte, cfg.CacheBlocks*int(bs)))
	r.readSync(t, filler, 0, int64(cfg.CacheBlocks)*bs, false)
	if got := r.m.Cache().Len(); got != cfg.CacheBlocks {
		t.Fatalf("%d blocks cached, want the cache full (%d)", got, cfg.CacheBlocks)
	}
	// Two blocks a stripe unit apart, one on each disk: each disk takes one
	// prefetch and is at its bound while they are in transit.
	busy := r.fs.MustCreate("busy", make([]byte, 4*1024))
	r.cli().HintSeg(busy, 0, 1024)
	r.cli().HintSeg(busy, 2*1024, 1024)
	if got := r.m.PrefetchDepth(); got != 2 {
		t.Fatalf("prefetch depth %d, want one per disk", got)
	}
	cached := func() map[int64]cache.State {
		set := map[int64]cache.State{}
		r.m.Cache().ForEach(func(b *cache.Block) { set[b.LB] = b.State() })
		return set
	}
	before, stats, prefetches := cached(), r.m.Cache().Stats(), r.m.Stats().HintPrefetches

	f := r.fs.MustCreate("f", make([]byte, 8*1024))
	r.cli().HintSeg(f, 0, 8*1024)
	if got := r.m.Stats().HintPrefetches; got != prefetches {
		t.Fatalf("%d prefetches issued past the depth bound", got-prefetches)
	}
	if got := r.m.Cache().Stats(); got.EvictedClean != stats.EvictedClean {
		t.Fatalf("EvictedClean %d -> %d: a refused prefetch evicted a block", stats.EvictedClean, got.EvictedClean)
	}
	if after := cached(); !maps.Equal(after, before) {
		t.Fatalf("the refused pass changed the cached set:\nbefore %v\nafter  %v", before, after)
	}
}

func TestHintSegCapDropsHints(t *testing.T) {
	cfg := smallTIP()
	cfg.MaxHintSegs = 3
	r := newRig(t, cfg, smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 16*1024))
	for i := int64(0); i < 6; i++ {
		r.cli().HintSeg(f, i*1024, 1024)
	}
	st := r.m.Stats()
	if st.DroppedHints != 3 {
		t.Fatalf("DroppedHints = %d, want 3", st.DroppedHints)
	}
	// Consuming hints frees queue space for new ones.
	r.clk.Drain()
	r.readSync(t, f, 0, 1024, true)
	r.cli().HintSeg(f, 10*1024, 1024)
	if got := r.m.Stats().DroppedHints; got != 3 {
		t.Fatalf("DroppedHints = %d after consumption freed space, want still 3", got)
	}
}

func TestDemandPromotesQueuedPrefetch(t *testing.T) {
	cfg := smallTIP()
	cfg.MaxDepthPerDisk = 8
	r := newRig(t, cfg, smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 16*1024))
	// Hint blocks 0..7; several prefetches queue up on each disk.
	r.cli().HintSeg(f, 0, 16*1024)
	// Immediately demand the LAST hinted block: its queued prefetch must be
	// promoted ahead of the earlier prefetches on its disk.
	elapsed := r.readSync(t, f, 15*1024, 1024, true)
	// Unpromoted it would wait for every earlier prefetch on its disk
	// (4 services); promoted it waits for at most the in-service one plus
	// its own.
	if elapsed > 3*1100 {
		t.Fatalf("promoted demand waited %d cycles, want < 3 services", elapsed)
	}
}

func TestPartialSegmentConsumption(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 8*1024))
	// One manual-style hint covering the whole file.
	r.cli().HintSeg(f, 0, 8*1024)
	r.clk.Drain()
	if !r.cli().Covered(f, 0, 1024) || !r.cli().Covered(f, 4096, 1024) {
		t.Fatal("whole-file hint does not cover chunk reads")
	}
	// Consume in three chunks; segment completes only at the end.
	r.readSync(t, f, 0, 4096, true)
	if got := r.m.Stats().MatchedCalls; got != 0 {
		t.Fatalf("MatchedCalls = %d before full consumption", got)
	}
	r.readSync(t, f, 4096, 4096, true)
	if got := r.m.Stats().MatchedCalls; got != 1 {
		t.Fatalf("MatchedCalls = %d after full consumption, want 1", got)
	}
	if r.cli().Covered(f, 0, 1024) {
		t.Fatal("completed segment still covers reads")
	}
}

func TestCoverageClampsAtEOF(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 3000)) // not block aligned
	r.cli().HintSeg(f, 0, 1<<30)                  // whole-file manual hint
	// A read whose requested length extends past EOF is still covered.
	if !r.cli().Covered(f, 2048, 4096) {
		t.Fatal("EOF-clamped read not covered")
	}
	r.readSync(t, f, 0, 2048, true)
	r.readSync(t, f, 2048, 4096, true)
	if got := r.m.Stats().MatchedCalls; got != 1 {
		t.Fatalf("MatchedCalls = %d, want 1 (segment complete at EOF)", got)
	}
}

func TestAccuracyWindowRecovers(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	// A flood of cancellations crushes the horizon...
	for i := 0; i < 1000; i++ {
		r.cli().accObserve(false, 1)
	}
	if r.cli().effHorizon() != r.m.cfg.MinHorizon {
		t.Fatal("horizon not floored after cancellation flood")
	}
	// ...but sustained matches bring it back (windowed, not lifetime).
	for i := 0; i < 2000; i++ {
		r.cli().accObserve(true, 1)
	}
	if h := r.cli().effHorizon(); h < r.m.cfg.Horizon*3/4 {
		t.Fatalf("horizon %d did not recover (window broken)", h)
	}
}

func TestRADepthSeparateFromHintDepth(t *testing.T) {
	cfg := smallTIP()
	cfg.MaxDepthPerDisk = 1
	cfg.RADepthPerDisk = 4
	cfg.ReadaheadMax = 8
	r := newRig(t, cfg, smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 64*1024))
	// Build up a sequential run so readahead wants depth > 1.
	for off := int64(0); off < 8*1024; off += 1024 {
		r.readSync(t, f, off, 1024, false)
	}
	if got := r.m.Stats().RAPrefetches; got <= 2 {
		t.Fatalf("RAPrefetches = %d, want readahead beyond the hint depth bound", got)
	}
}

func TestHintBatch(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 8*1024))
	r.cli().HintBatch([]Seg{
		{File: f, Off: 0, N: 2048},
		{File: f, Off: 2048, N: 2048},
		{File: f, Off: 4096, N: 2048},
	})
	st := r.m.Stats()
	if st.HintCalls != 3 || st.HintBlocks != 6 {
		t.Fatalf("batch stats = %+v", st)
	}
	r.clk.Drain()
	r.readSync(t, f, 0, 2048, true)
	if got := r.m.Stats().MatchedCalls; got != 1 {
		t.Fatalf("MatchedCalls = %d", got)
	}
}

// TestProvedBlendsAccuracy: a proved client's accuracy estimate counts
// priorWeight correct pseudo-observations: it stays 1.0 before any evidence,
// and wrong hints pull it down more slowly than an unmarked client's.
func TestProvedBlendsAccuracy(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	plain, proved := r.m.NewClient(), r.m.NewClient()
	proved.Proved()
	if got := proved.Accuracy(); got != 1.0 {
		t.Fatalf("proved accuracy with no evidence = %v, want 1.0", got)
	}
	for _, c := range []*Client{plain, proved} {
		c.accObserve(true, 16)
		c.accObserve(false, 16)
	}
	if got, want := proved.Accuracy(), (16.0+priorWeight)/(32.0+priorWeight); got != want {
		t.Fatalf("proved accuracy = %v, want %v", got, want)
	}
	if plain.Accuracy() != 0.5 {
		t.Fatalf("unmarked accuracy = %v, want 0.5", plain.Accuracy())
	}
}

// TestProvedKeepsFullDepth: a proved client's segment prefetches the whole
// horizon, exactly like an unmarked client's.
func TestProvedKeepsFullDepth(t *testing.T) {
	for _, proved := range []bool{false, true} {
		r := newRig(t, smallTIP(), smallDisk())
		f := r.fs.MustCreate("f", make([]byte, 20*1024))
		if proved {
			r.cli().Proved()
		}
		r.cli().HintSeg(f, 0, 20*1024)
		r.clk.Drain()
		if got := r.m.Stats().HintPrefetches; got != 8 { // horizon 8
			t.Errorf("proved %v: HintPrefetches = %d, want 8", proved, got)
		}
	}
}

// TestProvedConsumptionAdvances: consuming part of a proved segment moves
// its prefetch window forward.
func TestProvedConsumptionAdvances(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("f", make([]byte, 20*1024))
	r.cli().Proved()
	r.cli().HintSeg(f, 0, 20*1024)
	r.clk.Drain()
	before := r.m.Stats().HintPrefetches
	r.readSync(t, f, 0, 4*1024, true)
	r.clk.Drain()
	after := r.m.Stats().HintPrefetches
	if after <= before {
		t.Fatalf("consumption did not advance a proved segment: %d -> %d", before, after)
	}
}

// TestProvedReadsAheadPastItsSegment: a hinted read that exhausts a proved
// client's segment reads ahead past it; an unmarked client's does not.
func TestProvedReadsAheadPastItsSegment(t *testing.T) {
	for _, proved := range []bool{false, true} {
		r := newRig(t, smallTIP(), smallDisk())
		f := r.fs.MustCreate("f", make([]byte, 20*1024))
		if proved {
			r.cli().Proved()
		}
		r.cli().HintSeg(f, 0, 4*1024)
		r.clk.Drain()
		r.readSync(t, f, 0, 4*1024, true)
		if got := r.m.Stats().RAPrefetches; (got > 0) != proved {
			t.Errorf("proved %v: RAPrefetches = %d", proved, got)
		}
	}
}

// ID returns the client's id (also its cache owner id).
func (c *Client) ID() int { return c.id }
