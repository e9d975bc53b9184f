package tip

// Prefetching: the pump that turns queued hints into fetches up to the
// cost-benefit depth, the one place a disk request is built and submitted,
// its completion, and the sequential read-ahead policy for unhinted reads.

import (
	"math/bits"
	"slices"

	"spechint/internal/cache"
	"spechint/internal/disk"
	"spechint/internal/fsim"
)

// fetch is the manager's record of one in-transit block (Manager.fetches),
// carrying the disk request of its current attempt. Records come from the
// manager's free list (newFetch); the request's Done is the record's done,
// bound when the record is first allocated.
type fetch struct {
	disk.Request
	m        *Manager
	lb       int64
	attempts int  // attempts that failed transiently so far
	queued   bool // the request is at the array: false during a retry backoff
}

// done is the request's completion.
func (f *fetch) done(err error) { f.m.onFetchDone(f, err) }

// newFetch returns a record for lb with no failed attempt, from the free list
// if it can.
func (m *Manager) newFetch(lb int64) *fetch {
	var f *fetch
	if n := len(m.freeFetches); n > 0 {
		f = m.freeFetches[n-1]
		m.freeFetches = m.freeFetches[:n-1]
	} else {
		f = &fetch{m: m}
		f.Done = f.done
	}
	f.lb, f.attempts, f.queued = lb, 0, false
	return f
}

// releaseFetch puts f on the free list. The caller guarantees nothing
// reaches f any more: the array has called its Done, it was not re-submitted,
// and Manager.fetches no longer names it. Under the test-only poison a
// released record names block -1 on disk -1, so a late Submit or Done panics.
func (m *Manager) releaseFetch(f *fetch) {
	if m.poison {
		f.lb, f.Disk = -1, -1
		return
	}
	m.freeFetches = append(m.freeFetches, f)
}

// pump issues hint-driven prefetches on every hint, disk-idle transition and
// completion. It visits the woken clients, each once and in ascending id order
// for determinism: every client a sweep over all slots would find unsettled.
// A client woken behind the cursor waits for the next pump, as it would behind
// that sweep. One client running out of buffers does not stop the others
// (their partitions may still have room).
func (m *Manager) pump() {
	if m.cfg.IgnoreHints {
		return
	}
	for id := 0; ; id++ {
		if d := m.arr.DeadCount(); d != m.dead {
			// A disk died (a Submit can find one mid-pump): every memo is out of date.
			m.dead = d
			for _, c := range m.clients {
				if !c.closed {
					m.woken.add(c.id)
				}
			}
		}
		if id = m.woken.next(id); id < 0 {
			return
		}
		m.woken.del(id)
		m.clients[id].pump()
	}
}

// clientSet is a set of client ids, one bit per slot.
type clientSet []uint64

func (s *clientSet) add(id int) {
	for len(*s) <= id>>6 {
		*s = append(*s, 0)
	}
	(*s)[id>>6] |= 1 << (id & 63)
}

func (s clientSet) del(id int) {
	if id>>6 < len(s) {
		s[id>>6] &^= 1 << (id & 63)
	}
}

// addAll adds every id of o to s.
func (s *clientSet) addAll(o clientSet) {
	for len(*s) < len(o) {
		*s = append(*s, 0)
	}
	for i, w := range o {
		(*s)[i] |= w
	}
}

// next returns the smallest id in s that is at least from, or -1.
func (s clientSet) next(from int) int {
	for i := from >> 6; i < len(s); i++ {
		w := s[i]
		if i == from>>6 {
			w &= ^uint64(0) << (from & 63)
		}
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// pumpMemo is what a client keeps of its last pass over its window when that
// pass was pure: it changed nothing, and every block it wanted was turned away
// by the per-disk depth bound before a buffer was asked for. A pure pass over
// unchanged inputs is pure again, so the pump skips the client until an input
// moves. Each input has one invalidation:
//
//   - the client's own queue, horizon and accuracy: stale, from hintSeg,
//     consume and SetPrior (accuracy is otherwise observed only inside
//     consume and CancelAll; CancelAll and Close leave an empty window, and
//     a pass over that does nothing whatever it remembers);
//   - the residency, (HintDist, Owner) or demotion of a block of a live
//     segment: Manager.blockChanged, told by the cache's change hook (a
//     demotion is set just before the Fail that reports the block) and by
//     the one place a demotion is cleared;
//   - a prefetch slot on a disk that refused, and a disk's death: compared
//     when the client is next visited (settled), because either can happen
//     while an earlier client of the same pump is being served.
//
// Only a woken client is visited, so each of these also wakes it: stale sets
// its bit, a freed slot on dk wakes Manager.refusers[dk] (and the clients
// every disk refused), a change in the dead-disk count wakes every open
// client, and NewClient wakes the new one. A wake that finds the client
// settled after all costs one visit.
//
// A pass is marked clean before it starts and spoils itself: whatever it does
// to a block of its window (SetHintFor, a buffer acquired, a buffer dropped
// again) comes back through blockChanged, the client watching every granule
// its segments touch, and a refused buffer says so itself. A pass that
// reached AcquireFor is therefore never kept, and what only AcquireFor reads
// — partitions, cache occupancy, other clients' accuracy — is not tracked.
// (A dead-disk skip is counted once per block, so the pass that counts it
// leaves nothing for its repeat to do and may be kept.)
type pumpMemo struct {
	clean   bool
	all     bool  // every disk turned the pass away: it found the array saturated
	dead    int   // the array's dead-disk count the pass saw
	refused []int // disks at MaxDepthPerDisk that turned a block of the pass away
}

// granuleShift sizes the granules of Manager.interest: 64 blocks. The index
// is conservative — a client is woken by any change in a granule it has ever
// hinted into, until it closes; a spurious wake costs one walk.
const granuleShift = 6

// stale discards the memo and wakes the client: it walks at its next visit.
func (c *Client) stale() {
	c.memo.clean = false
	c.m.woken.add(c.id)
}

// unrefuse takes c out of every refusers set: its memo lists no disk.
func (c *Client) unrefuse() {
	for _, s := range c.m.refusers {
		s.del(c.id)
	}
}

// blockChanged wakes the clients whose window may hold lb.
func (m *Manager) blockChanged(lb int64) {
	for _, c := range m.interest[lb>>granuleShift] {
		c.stale()
	}
}

// watch enters c in the interest index for every granule seg touches.
func (c *Client) watch(seg *segment) {
	if seg.nBlocks == 0 {
		return
	}
	in := c.m.interest
	for g := seg.firstLB >> granuleShift; g <= (seg.firstLB+seg.nBlocks-1)>>granuleShift; g++ {
		if !slices.Contains(in[g], c) {
			in[g] = append(in[g], c)
			c.granules = append(c.granules, g)
		}
	}
}

// unwatch takes c out of the interest index.
func (c *Client) unwatch() {
	in := c.m.interest
	for _, g := range c.granules {
		l := in[g]
		last := len(l) - 1
		l[slices.Index(l, c)] = l[last]
		l[last] = nil
		in[g] = l[:last]
	}
	c.granules = c.granules[:0]
}

// settled reports that c's last pass was pure and nothing it read has moved.
func (c *Client) settled() bool {
	m := c.m
	if !c.memo.clean || c.memo.dead != m.arr.DeadCount() {
		return false
	}
	if c.memo.all && slices.ContainsFunc(m.prefDepth, func(depth int) bool { return depth < m.cfg.MaxDepthPerDisk }) {
		return false
	}
	for _, dk := range c.memo.refused {
		if m.prefDepth[dk] < m.cfg.MaxDepthPerDisk {
			return false
		}
	}
	return true
}

// PumpWork is the pump's effort so far; every count is deterministic for a
// run.
type PumpWork struct {
	Walks  int64 // passes a client made over its window (a visit to a settled client is not one)
	Steps  int64 // hinted blocks those passes examined
	Probes int64 // steps that went on to ask the disk side about the block (demoted? which disk? dead? a free slot?)
	Visits int64 // clients the pump looked at, walking or not (Client.pump entries)

	// PartitionSums counts the passes over every client slot that recomputed
	// the partition shares.
	PartitionSums int64
}

// PumpWork returns the pump's effort so far.
func (m *Manager) PumpWork() PumpWork { return m.work }

// saturated reports that the disk side has one answer for every block a pass
// could ask about — "no slot" — so the pass need not ask: every disk is at
// MaxDepthPerDisk (a missing block cannot start), no block is demoted and no
// disk is dead (a step has neither to skip nor to count). Inside a pass only a
// started fetch can change any of the three.
func (m *Manager) saturated() bool {
	bound := m.cfg.MaxDepthPerDisk
	if bound == 0 || m.probeAlways || len(m.demoted) > 0 || m.arr.DeadCount() > 0 {
		return false
	}
	for _, depth := range m.prefDepth {
		if depth < bound {
			return false
		}
	}
	return true
}

// saturate is saturated, and when it holds the rest of the pass is refused by
// every disk without being asked: the memo says so, and settled wakes the
// client on the first slot freed anywhere (more disks than a probing pass
// would have listed; a spurious wake costs one walk).
func (c *Client) saturate() bool {
	if !c.m.saturated() {
		return false
	}
	c.memo.all = true
	c.m.refusers[len(c.m.prefDepth)].add(c.id)
	return true
}

// pump issues this client's hint-driven prefetches up to its effective
// horizon, unless its last pass settled it.
func (c *Client) pump() {
	m := c.m
	m.work.Visits++
	if c.closed || c.settled() {
		return
	}
	m.work.Walks++
	c.unrefuse()
	c.memo = pumpMemo{clean: true, dead: m.arr.DeadCount(), refused: c.memo.refused[:0]}
	horizon := c.effHorizon()
	bs := int64(m.fs.BlockSize())
	sat := c.saturate()
	dist := 0
	for i := c.head; i < len(c.hints) && dist < horizon; i++ {
		seg := &c.hints[i]
		// A statically synthesized hint prefetches only within its
		// confidence-scaled share of the horizon: proved segments (conf 1)
		// run to the full depth, speculative ones stop shallow. Blocks past
		// the bound still advance dist, so later segments see their true
		// queue distance. conf == 0 (dynamic hints) leaves lim == horizon.
		lim := int64(horizon)
		if seg.conf > 0 {
			lim = min(lim, max(int64(seg.conf*float64(horizon)), int64(m.cfg.MinHorizon)))
		}
		for k := seg.consumedBlocks(bs); k < seg.nBlocks; k++ {
			if dist >= horizon {
				return
			}
			m.work.Steps++
			lb := seg.firstLB + k
			d := int64(dist)
			dist++
			if d >= lim {
				continue
			}
			if sat {
				// Nothing can start: only a resident block's distance is left
				// to refresh.
				if b := m.cache.Get(lb); b != nil && b.HintDist > d {
					m.cache.SetHintFor(lb, c.id, d)
				}
				continue
			}
			m.work.Probes++
			if len(m.demoted) > 0 && m.demoted[lb] {
				// Repeatedly failing block: left to the demand read, so the
				// rest of the hinted sequence keeps prefetching.
				continue
			}
			dk := m.arr.DiskOf(lb)
			if m.arr.Dead(dk) {
				// Degraded mode: no prefetching onto a dead disk.
				if !m.deadSkipped[lb] {
					m.deadSkipped[lb] = true
					m.faults.DeadSkips++
				}
				continue
			}
			if b := m.cache.Get(lb); b != nil {
				if b.HintDist > d {
					m.cache.SetHintFor(lb, c.id, d)
				}
				continue
			}
			switch m.startFetch(c.id, lb, cache.OriginHint, d) {
			case fetchStarted:
				c.stats.HintPrefetches++
				if m.obs.Enabled() {
					m.emit("prefetch", "client=%d lb=%d dist=%d", c.id, lb, d)
				}
				sat = c.saturate()
			case fetchDiskBusy:
				// This disk is at depth; later blocks may differ.
				if !slices.Contains(c.memo.refused, dk) {
					c.memo.refused = append(c.memo.refused, dk)
					m.refusers[dk].add(c.id)
				}
			case fetchNoBuffer:
				c.stale()
				return // cache pressure: stop pumping this client
			}
		}
	}
}

// fetchResult says why startFetch declined, so the pump can distinguish
// per-disk back-pressure (skip the block) from cache pressure (stop).
type fetchResult int

const (
	fetchStarted fetchResult = iota
	fetchDiskBusy
	fetchNoBuffer
)

// startFetch acquires a buffer for lb on the owner's behalf and submits the
// disk request, leaving no residue on failure. Prefetch-priority fetches are
// refused outright when the target disk is dead (degraded mode); demand
// fetches are always submitted — the dead disk answers them with ErrDead,
// which surfaces to the reader as a read error.
func (m *Manager) startFetch(owner int, lb int64, origin cache.Origin, hintDist int64) fetchResult {
	dk, phys := m.arr.Map(lb)
	pri := disk.Prefetch
	if origin == cache.OriginDemand {
		pri = disk.Demand
	}
	if pri == disk.Prefetch {
		bound := m.cfg.MaxDepthPerDisk
		if origin == cache.OriginReadahead {
			bound = m.cfg.RADepthPerDisk
		}
		if m.arr.Dead(dk) || bound > 0 && m.prefDepth[dk] >= bound {
			return fetchDiskBusy
		}
	}
	if m.cache.AcquireFor(owner, lb, origin, hintDist) == nil {
		return fetchNoBuffer
	}
	if !m.submit(lb, dk, phys, pri) {
		m.cache.Drop(lb)
		return fetchDiskBusy
	}
	return fetchStarted
}

// submit sends the disk request for the in-transit block lb and records it;
// false means the disk refused it (prefetch back-pressure) and nothing new
// was recorded. A retry reuses the block's record, failed-attempt count
// included.
func (m *Manager) submit(lb int64, dk int, phys int64, pri disk.Priority) bool {
	f := m.fetches[lb]
	fresh := f == nil
	if fresh {
		f = m.newFetch(lb)
	}
	f.Disk, f.PhysBlock, f.Pri = dk, phys, pri
	if !m.arr.Submit(&f.Request) {
		if fresh {
			m.releaseFetch(f)
		}
		return false
	}
	if fresh {
		m.fetches[lb] = f
	}
	f.queued = true
	if pri == disk.Prefetch {
		m.prefDepth[dk]++
	}
	return true
}

// onFetchDone is the completion of f's request. f is released once it is out
// of fetches, so it is read first and not touched after.
func (m *Manager) onFetchDone(f *fetch, err error) {
	lb, dk := f.lb, f.Disk
	f.queued = false
	if f.Pri == disk.Prefetch {
		m.prefDepth[dk]--
		if m.prefDepth[dk] < m.cfg.MaxDepthPerDisk {
			// A slot is free on dk: wake the clients a full dk turned away.
			m.woken.addAll(m.refusers[dk])
			m.woken.addAll(m.refusers[len(m.prefDepth)])
		}
	}
	if err != nil {
		m.handleFetchError(f, err)
	} else {
		delete(m.fetches, lb)
		m.releaseFetch(f)
		if m.demoted[lb] {
			delete(m.demoted, lb)
			m.blockChanged(lb)
		}
		m.cache.Complete(lb)
	}
	m.retryPendingDemand()
	m.pump()
}

// raState tracks the sequential read-ahead heuristic for one file; Client.ra
// holds it by value, so a file's first read allocates nothing.
type raState struct {
	nextByte  int64 // where a sequential read would continue
	runBlocks int64 // length of the current sequential run, in blocks
}

// readahead implements the sequential read-ahead policy: on a sequential
// read, prefetch approximately as many blocks as have been read
// sequentially, up to ReadaheadMax. The run state is per client as well as
// per file — two processes interleaving reads of one file must not corrupt
// each other's sequentiality detection.
func (c *Client) readahead(f *fsim.File, off, end, first, last int64) {
	m := c.m
	if m.cfg.ReadaheadMax == 0 {
		return
	}
	st := c.ra[f.Ino()]
	nBlocks := last - first + 1
	if off == st.nextByte || off == 0 && st.nextByte == 0 {
		st.runBlocks += nBlocks
	} else {
		st.runBlocks = nBlocks
	}
	st.nextByte = end
	c.ra[f.Ino()] = st

	depth := st.runBlocks
	if depth > int64(m.cfg.ReadaheadMax) {
		depth = int64(m.cfg.ReadaheadMax)
	}
	for b := last + 1; b <= last+depth && b < f.NBlocks(); b++ {
		lb := f.LogicalBlock(b)
		if m.cache.Get(lb) != nil {
			continue
		}
		if m.startFetch(c.id, lb, cache.OriginReadahead, cache.NoHint) != fetchStarted {
			return
		}
		c.stats.RAPrefetches++
		if m.obs.Enabled() {
			m.emit("readahead", "client=%d lb=%d run=%d", c.id, lb, st.runBlocks)
		}
	}
}
