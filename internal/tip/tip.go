// Package tip implements the informed prefetching and caching manager from
// Patterson's TIP, as used by the SpecHint paper: applications disclose
// their future reads as a sequence of hints (Table 2's TIPIO_SEG /
// TIPIO_FD_SEG / TIPIO_CANCEL_ALL) and TIP converts them into prefetch I/O,
// balancing prefetch depth against cache pressure with a simplified
// cost-benefit rule.
//
// TIP is a multi-process substrate: each process holds a Client whose hint
// queue, accuracy estimate and read-ahead state are private, so one process's
// TIPIO_CANCEL_ALL or bad hints cannot cancel or discount another's. The
// Manager arbitrates the shared cache and disk array across clients,
// partitioning hinted buffers by each client's recent accuracy.
//
// Unhinted read calls invoke the operating system's sequential read-ahead
// policy, which prefetches approximately as many blocks as have been read
// sequentially, up to 64 — aggressive enough to waste most of its prefetches
// on random-access workloads like XDataSlice, as the paper's Table 5 shows.
//
// Each step of a block's life is written once: hints.go (disclose, cancel,
// consume, accuracy), prefetch.go (pump, submit, completion, readahead),
// read.go (the demand read), fault.go (a fetch that failed); this file holds
// the configuration, the counters, the manager, client slots and partitions.
package tip

import (
	"fmt"

	"spechint/internal/cache"
	"spechint/internal/disk"
	"spechint/internal/fsim"
	"spechint/internal/obs"
	"spechint/internal/sim"
)

// Config tunes the manager.
type Config struct {
	CacheBlocks int // file cache capacity in blocks

	// Horizon is the maximum prefetch depth, in blocks, down the hinted
	// sequence. TIP derived this bound from its system model; here it is a
	// parameter, scaled down by observed hint accuracy.
	Horizon int

	// MinHorizon floors the accuracy-scaled horizon so that a burst of bad
	// hints cannot disable prefetching permanently.
	MinHorizon int

	// ReadaheadMax caps the sequential read-ahead policy (64 blocks in
	// Digital UNIX).
	ReadaheadMax int

	// MaxDepthPerDisk bounds prefetches outstanding (queued + in service)
	// at each disk. This is the queue-side half of TIP's cost-benefit rule:
	// deep prefetch queues make demand reads wait behind prefetches whose
	// buffers they need (a non-preemptible request cannot be jumped even by
	// a higher-priority demand for the same block). Zero means unbounded.
	MaxDepthPerDisk int

	// RADepthPerDisk bounds outstanding sequential read-ahead prefetches per
	// disk. It is deliberately looser than MaxDepthPerDisk: the read-ahead
	// policy predates TIP's cost-benefit control and is "entirely too
	// aggressive" for nonsequential workloads (paper §4.4). Zero means
	// unbounded.
	RADepthPerDisk int

	// MaxHintSegs caps each client's outstanding hint queue; hints beyond
	// the cap are dropped (TIP's hint buffers were finite). Runaway
	// speculation can otherwise disclose unbounded garbage. Zero means
	// unbounded.
	MaxHintSegs int

	// IgnoreHints makes hint calls no-ops (the paper's Figure 4
	// configuration): every read is treated as unhinted.
	IgnoreHints bool

	// MaxFetchRetries bounds how often a *prefetch* whose disk request
	// failed transiently is retried before its block is demoted (dropped
	// from the hinted sequence so the prefetcher does not wedge). Demand
	// fetches retry until they succeed or their disk dies — stalling the
	// application on a transient error is never acceptable.
	MaxFetchRetries int

	// RetryBaseCycles is the first retry backoff in virtual cycles; each
	// subsequent retry of the same block doubles it, capped at
	// RetryCapCycles. Zero selects the defaults (500k base, 16M cap:
	// ~2 ms to ~70 ms of testbed time).
	RetryBaseCycles int64
	RetryCapCycles  int64
}

// DefaultConfig mirrors the testbed: 12 MB cache of 8 KB blocks.
func DefaultConfig() Config {
	return Config{
		CacheBlocks:     12 << 20 / 8192,
		Horizon:         256,
		MinHorizon:      16,
		ReadaheadMax:    64,
		MaxDepthPerDisk: 8,
		RADepthPerDisk:  8,
		MaxHintSegs:     1 << 16,
		MaxFetchRetries: 4,
	}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.CacheBlocks <= 0:
		return fmt.Errorf("tip: CacheBlocks = %d, want > 0", c.CacheBlocks)
	case c.Horizon <= 0:
		return fmt.Errorf("tip: Horizon = %d, want > 0", c.Horizon)
	case c.MinHorizon <= 0 || c.MinHorizon > c.Horizon:
		return fmt.Errorf("tip: MinHorizon = %d, want in [1, Horizon]", c.MinHorizon)
	case c.ReadaheadMax < 0:
		return fmt.Errorf("tip: ReadaheadMax = %d, want >= 0", c.ReadaheadMax)
	case c.MaxDepthPerDisk < 0 || c.RADepthPerDisk < 0 || c.MaxHintSegs < 0:
		return fmt.Errorf("tip: negative MaxDepthPerDisk, RADepthPerDisk or MaxHintSegs")
	case c.MaxFetchRetries < 0 || c.RetryBaseCycles < 0 || c.RetryCapCycles < 0:
		return fmt.Errorf("tip: negative MaxFetchRetries, RetryBaseCycles or RetryCapCycles")
	}
	return nil
}

// Stats aggregates the hinting and prefetching activity of one client (or,
// via Manager.Stats, of every client); it is the source for the paper's
// Tables 4 and 5.
type Stats struct {
	// Demand read activity (explicit file calls only).
	ReadCalls  int64
	ReadBlocks int64
	ReadBytes  int64
	// Subset of the above that arrived hinted.
	HintedReadCalls  int64
	HintedReadBlocks int64
	HintedReadBytes  int64

	// Hint activity.
	HintCalls     int64
	HintBlocks    int64
	HintBytes     int64
	CancelCalls   int64
	CancelledSegs int64
	DroppedHints  int64 // hint calls dropped at the MaxHintSegs cap
	MatchedCalls  int64
	MatchedBlocks int64
	MatchedBytes  int64
	BypassedSegs  int64

	// Prefetch activity.
	HintPrefetches int64 // blocks fetched because of hints
	RAPrefetches   int64 // blocks fetched by sequential read-ahead
}

// add accumulates o into s (for cross-client aggregation).
func (s *Stats) add(o Stats) {
	s.ReadCalls += o.ReadCalls
	s.ReadBlocks += o.ReadBlocks
	s.ReadBytes += o.ReadBytes
	s.HintedReadCalls += o.HintedReadCalls
	s.HintedReadBlocks += o.HintedReadBlocks
	s.HintedReadBytes += o.HintedReadBytes
	s.HintCalls += o.HintCalls
	s.HintBlocks += o.HintBlocks
	s.HintBytes += o.HintBytes
	s.CancelCalls += o.CancelCalls
	s.CancelledSegs += o.CancelledSegs
	s.DroppedHints += o.DroppedHints
	s.MatchedCalls += o.MatchedCalls
	s.MatchedBlocks += o.MatchedBlocks
	s.MatchedBytes += o.MatchedBytes
	s.BypassedSegs += o.BypassedSegs
	s.HintPrefetches += o.HintPrefetches
	s.RAPrefetches += o.RAPrefetches
}

// InaccurateCalls returns the number of hint calls that never matched a
// demand read (valid after FinishRun).
func (s Stats) InaccurateCalls() int64 { return s.HintCalls - s.MatchedCalls }

// InaccurateBlocks returns hinted blocks that never matched a demand read.
func (s Stats) InaccurateBlocks() int64 { return s.HintBlocks - s.MatchedBlocks }

// InaccurateBytes returns hinted bytes that never matched a demand read.
func (s Stats) InaccurateBytes() int64 { return s.HintBytes - s.MatchedBytes }

// PrefetchedBlocks returns the total blocks fetched speculatively.
func (s Stats) PrefetchedBlocks() int64 { return s.HintPrefetches + s.RAPrefetches }

// Manager is the informed prefetching and caching manager: the shared cache,
// the shared disk queues, and the per-client arbitration between them.
type Manager struct {
	clk   *sim.Queue
	arr   *disk.Array
	fs    *fsim.FS
	cache *cache.Cache
	cfg   Config

	clients []*Client // indexed by client id
	defc    *Client   // lazy default client behind Manager.Read

	// Client-slot recycling. A service workload (internal/cluster) opens and
	// closes a hint stream per client session; without reuse the clients
	// slice — which every partition recompute walks — would grow with the
	// total number of sessions ever served instead of the concurrent peak.
	// free holds closed ids available to NewClient, which hands out the
	// closed Client itself again; retired accumulates the stats of clients
	// whose slot has been handed out again, so Stats stays a whole-lifetime
	// aggregate.
	free    []int
	retired Stats

	// Free lists of the objects a read makes (see readOp and fetch), and the
	// scratch list of a read's misses.
	freeOps     []*readOp
	freeFetches []*fetch
	misses      []int64

	// pendingDemand holds demand fetches that could not obtain a buffer
	// (everything in transit); retried on every completion. pendingSpare is
	// the buffer the next retry restarts the list on (retryPendingDemand).
	pendingDemand []pendingFetch
	pendingSpare  []pendingFetch

	prefDepth []int // outstanding prefetches per disk
	stripe    int64 // blocks per stripe unit of the array

	// interest maps a granule of the logical block space to the clients that
	// have disclosed a hint touching it: whom blockChanged must wake.
	interest map[int64][]*Client

	// The woken set: the clients the next pump visits. refusers[dk] holds the
	// clients whose last pass disk dk turned away; a freed slot on dk wakes
	// them. dead is the array's dead-disk count when the pump last looked.
	woken    clientSet
	refusers []clientSet
	dead     int

	// shares caches what every partition share is computed from: the open
	// clients and the sum of their weights, in id order. Each input of a share
	// clears valid — NewClient, Close, accObserve, SetPrior — and partition
	// recomputes on the next read.
	shares struct {
		valid bool
		open  int
		sumW  float64
	}

	work PumpWork // for PumpWork

	// acting is the client whose pass is running (-1: none) and actLB the
	// block it is admitting or protecting: the change that block reports is
	// the pass's own, and the pass accounts for it.
	acting int
	actLB  int64

	// poison is set by tests only: released readOps and fetch records are
	// poisoned (releaseReadOp, releaseFetch) and never handed out again, so a
	// use after release panics.
	poison bool

	// fetches holds exactly one record per in-transit block, from the submit
	// that acquired its buffer until the block resolves (Complete or Fail) —
	// the backoff between a failed attempt and its retry included.
	fetches map[int64]*fetch

	// Degradation state: blocks demoted from prefetching after repeated
	// failures, and dead-disk blocks already counted as skipped (so DeadSkips
	// counts blocks, not pump passes).
	demoted     map[int64]bool
	deadSkipped map[int64]bool
	faults      FaultCounters

	obs *obs.Trace // nil = tracing off; all methods are nil-safe
}

// Client is one process's handle on the manager: a private hint queue,
// accuracy estimate and read-ahead state. Hints disclosed and cancelled
// through a Client never touch another client's queue.
type Client struct {
	m      *Manager
	id     int
	closed bool

	// The hint queue. Everything in hints[head:] is live: a cancel truncates
	// the queue in the same call, and consume only ever completes the
	// segment at head and pops it.
	hints []segment
	head  int // first unconsumed hint

	// Stream positions (segment.pos): tail is the next one to give out, at
	// the base as of the last consume, cancel or close.
	tail, at int64

	// The pass's frontier. Every position in [base, front) holds a cached
	// block that needs nothing from a pass; in [front, reach), which the last
	// passes examined, only a missing block on a disk with a free slot does,
	// and the due positions. Every change that may falsify this moves front
	// or reach back (Manager.blockChanged, consume); a pass starts at front
	// and skips what needs nothing.
	front, reach int64
	due          []int64 // positions in [front, reach) holding a cached block not this client's
	disks        uint64  // the disks of the missing blocks in [front, reach) (diskBit)

	// compare: the window holds a block whose comparison with this client's
	// distance moves with its base — another stream's, or one whose distance
	// is held. conf: a queued hint carries a static confidence, whose depth
	// bound the pass checks at every position.
	compare, conf bool

	// maxPos bounds the positions of this client's blocks whose distance
	// follows its base (cache.Block.Held is false).
	maxPos int64

	ra map[int64]raState // by inode

	// Windowed hint-accuracy estimate (right ≈ matched, wrong ≈ bypassed +
	// cancelled, both decayed): TIP discounts the benefit of prefetching
	// for processes whose recent hints proved unreliable, but a burst of
	// cancellations must not suppress prefetching forever.
	accGood float64
	accBad  float64

	// Static accuracy prior (SetPrior): blended into the windowed estimate
	// with priorWt pseudo-observations, so a statically analyzed hint stream
	// starts at its proved confidence instead of an optimistic 1.0 and early
	// dynamic evidence cannot whipsaw the horizon. priorWt == 0 (the
	// default) disables blending entirely.
	prior   float64
	priorWt float64

	granules []int64 // the granules of m.interest this client is entered in

	stats Stats
}

// New constructs a manager over the given clock, array and file system.
func New(clk *sim.Queue, arr *disk.Array, fs *fsim.FS, cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		clk:         clk,
		arr:         arr,
		fs:          fs,
		cache:       cache.New(cfg.CacheBlocks),
		cfg:         cfg,
		prefDepth:   make([]int, arr.Config().NumDisks),
		stripe:      int64(arr.Config().StripeUnit / arr.Config().BlockSize),
		refusers:    make([]clientSet, arr.Config().NumDisks),
		interest:    make(map[int64][]*Client),
		fetches:     make(map[int64]*fetch),
		demoted:     make(map[int64]bool),
		deadSkipped: make(map[int64]bool),
	}
	m.cache.SetAccuracyFn(func(owner int) float64 {
		if owner >= 0 && owner < len(m.clients) {
			return m.clients[owner].Accuracy()
		}
		return 1
	})
	m.cache.SetPartitionFn(m.partition)
	m.cache.SetOnChange(m.blockChanged)
	m.acting = -1
	return m, nil
}

// NewClient registers a new hint stream with the manager. Ids are assigned
// sequentially from zero, except that the slot of a closed client is reused
// first: the closed Client is cleared and handed out again, keeping the room
// its hint queue and maps had grown (its final counters move into the
// manager's retired aggregate — see Stats). A closed client holds no cache
// protection (Close released it), so reuse cannot leak ownership. The caller
// of Close must drop its handle: after reuse it names the new stream.
func (m *Manager) NewClient() *Client {
	var c *Client
	if n := len(m.free); n > 0 {
		c = m.clients[m.free[n-1]]
		m.free = m.free[:n-1]
		m.retired.add(c.stats)
		clear(c.ra)
		*c = Client{m: m, id: c.id, hints: c.hints[:0], ra: c.ra, granules: c.granules[:0], due: c.due[:0], tail: c.tail, at: c.tail, maxPos: -1}
	} else {
		c = &Client{m: m, id: len(m.clients), ra: make(map[int64]raState), maxPos: -1}
		m.clients = append(m.clients, c)
	}
	m.shares.valid = false
	m.woken.add(c.id) // its first visit walks (an empty window)
	return c
}

// Read performs a demand read through the default client, created on first
// use; see Client.Read. A run that drives the Manager directly (or through
// exactly one explicit client) therefore never sees partitioning.
func (m *Manager) Read(f *fsim.File, off, n int64, hinted bool, done func(err error)) bool {
	if m.defc == nil {
		m.defc = m.NewClient()
	}
	return m.defc.Read(f, off, n, hinted, done)
}

// Cache exposes the underlying cache (read-only use: stats, inspection).
func (m *Manager) Cache() *cache.Cache { return m.cache }

// SetObs installs a cross-layer trace: hint/prefetch/consume lifecycles land
// on the "tip" lane, and the cache (which holds no clock) is wired to emit on
// the "cache" lane with the manager's clock.
func (m *Manager) SetObs(tr *obs.Trace) {
	m.obs = tr
	m.cache.SetObs(tr, m.clk.Now)
}

// emit records a tip event when tracing is on.
func (m *Manager) emit(name, format string, args ...any) {
	if m.obs.Enabled() {
		m.obs.Emitf(m.clk.Now(), "tip", "tip", name, format, args...)
	}
}

// PrefetchDepth returns the prefetch requests currently outstanding (queued
// or in service) across the array — the depth the cost-benefit rule bounds.
func (m *Manager) PrefetchDepth() int {
	depth := 0
	for _, d := range m.prefDepth {
		depth += d
	}
	return depth
}

// Stats returns the counters summed over every client the manager has ever
// had: live and closed clients still holding their slot, plus the retired
// aggregate of clients whose slot NewClient handed out again.
func (m *Manager) Stats() Stats {
	sum := m.retired
	for _, c := range m.clients {
		sum.add(c.stats)
	}
	return sum
}

// FinishRun finalizes accounting at the end of a benchmark run.
func (m *Manager) FinishRun() {
	m.cache.FlushAccounting()
}

// Stats returns a copy of this client's counters.
func (c *Client) Stats() Stats { return c.stats }

// Close retires the client: its queued hints are released (without the
// accuracy penalty of a cancel — the process exited; its predictions were not
// wrong) and its cache partition is redistributed to the survivors.
func (c *Client) Close() {
	if c.closed {
		return
	}
	for i := c.head; i < len(c.hints); i++ {
		c.release(&c.hints[i])
	}
	c.empty()
	c.closed = true
	c.unwatch()
	c.unrefuse()
	c.m.woken.del(c.id)
	c.m.free = append(c.m.free, c.id)
	c.m.shares.valid = false
}

// partition is owner's share of the hinted-buffer budget, the cache's cap on
// its resident hinted blocks. With at most one open client the cache is
// unpartitioned (the single-process configuration of the paper); with
// several, a quarter of the cache is reserved as the shared unhinted LRU pool
// and the rest is split in proportion to each client's recent hint accuracy —
// TIP's cost-benefit allocation reduced to its ranking: reliable hinters earn
// deeper prefetch residency. 0 means unlimited: a closed client, or the only
// open one.
func (m *Manager) partition(owner int) int {
	if owner < 0 || owner >= len(m.clients) || m.clients[owner].closed {
		return 0
	}
	s := &m.shares
	if !s.valid {
		s.open, s.sumW = 0, 0
		for _, c := range m.clients {
			if !c.closed {
				s.open++
				s.sumW += c.weight()
			}
		}
		s.valid = true
		m.work.PartitionSums++
	}
	if s.open <= 1 {
		return 0
	}
	avail := m.cfg.CacheBlocks - max(1, m.cfg.CacheBlocks/4)
	return max(1, int(float64(avail)*m.clients[owner].weight()/s.sumW))
}
