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

// pump issues hint-driven prefetches on every hint, read and completion. It
// visits the woken clients, each once and in ascending id order for
// determinism: every client whose window something has changed since its last
// pass, or that a disk now able to take a prefetch turned away. A client woken
// behind the cursor waits for the next pump. One client running out of buffers
// does not stop the others (their partitions may still have room).
func (m *Manager) pump() {
	if m.cfg.IgnoreHints {
		return
	}
	for id := 0; ; id++ {
		if d := m.arr.DeadCount(); d != m.dead {
			// A disk died (a Submit can find one mid-pump): every client walks.
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

// granuleShift sizes the granules of Manager.interest: 64 blocks. The index
// is conservative — a client is woken by any change in a granule it has ever
// hinted into, until it closes; a spurious wake costs one walk.
const granuleShift = 6

// stale wakes the client: it walks at its next visit.
func (c *Client) stale() { c.m.woken.add(c.id) }

// unrefuse takes c out of every refusers set.
func (c *Client) unrefuse() {
	for _, s := range c.m.refusers {
		s.del(c.id)
	}
}

// blockChanged is the cache's change hook: lb's residency or protection
// changed, and before it the block was at position pos of owner's stream
// (cache.SetOnChange). It wakes the clients whose window may hold lb, and
// moves back the frontier of each whose examined window the change gave work
// (Client.front): a block there missing now, or resident and unprotected, or
// given a distance the client may beat.
func (m *Manager) blockChanged(lb int64, owner int, pos int64) {
	own := m.acting >= 0 && lb == m.actLB // the running pass's own admit or protect
	hinted := pos != cache.NoHint && pos != cache.WasAbsent
	for _, c := range m.interest[lb>>granuleShift] {
		c.stale()
		if own && c.id == m.acting {
			continue
		}
		// Only c's own blocks, or another stream's when c left one in its
		// window, can have been at a position c examined; any block admitted
		// can be at one.
		watched := hinted && (owner == c.id || c.compare)
		switch b := m.cache.Get(lb); {
		case b == nil:
			if watched {
				c.missing(lb)
			}
		case b.HintPos == cache.NoHint:
			if watched || pos == cache.WasAbsent {
				c.unclaimed(lb)
			}
		case pos == cache.WasAbsent:
			c.unclaimed(lb)
		case hinted && owner == c.id && b.Owner != c.id:
			c.compare = true // taken by a nearer stream
		}
	}
}

// missing records that lb, which has left the cache, may be at a position c
// examined: a pass may fetch it again. Its disk joins those a pass must find
// full to skip, and below the front it becomes the front.
func (c *Client) missing(lb int64) {
	if q := c.find(lb, c.at, c.reach); q >= 0 {
		c.disks |= diskBit(c.m.arr.DiskOf(lb))
		c.front = min(c.front, q)
	}
}

// diskBit is disk dk's bit in a disk set (Client.disks): disks 64 apart share
// one, which only makes the set larger.
func diskBit(dk int) uint64 { return 1 << (dk & 63) }

// roomless reports that every disk of ds is at the depth bound: no missing
// block on them can start.
func (c *Client) roomless(ds uint64) bool {
	m := c.m
	if m.cfg.MaxDepthPerDisk == 0 {
		return false
	}
	for dk, depth := range m.prefDepth {
		if ds&diskBit(dk) != 0 && depth < m.cfg.MaxDepthPerDisk {
			return false
		}
	}
	return true
}

// roomy returns the first position in [p, limit), from segment i on, whose
// block is on a disk with a free prefetch slot, or limit: the stripe layout
// names a block's disk without a lookup.
func (c *Client) roomy(i int, p, limit int64) int64 {
	m := c.m
	if m.cfg.MaxDepthPerDisk == 0 {
		return p
	}
	for ; i < len(c.hints) && p < limit; i++ {
		s := &c.hints[i]
		for lb, last := s.firstLB+max(p-s.pos, 0), s.firstLB+s.nBlocks; lb < last; {
			if m.prefDepth[m.arr.DiskOf(lb)] < m.cfg.MaxDepthPerDisk {
				return min(s.pos+lb-s.firstLB, limit)
			}
			lb = (lb/m.stripe + 1) * m.stripe // the next stripe unit
		}
		p = s.pos + s.nBlocks
	}
	return limit
}

// refuse enters c in the refusers set of every disk of ds.
func (c *Client) refuse(ds uint64) {
	for dk := range c.m.prefDepth {
		if ds&diskBit(dk) != 0 {
			c.m.refusers[dk].add(c.id)
		}
	}
}

// unclaimed makes the next pass visit every position c examined that holds
// lb, which is resident now and not c's, even with every disk full.
func (c *Client) unclaimed(lb int64) {
	for q := c.find(lb, c.at, c.reach); q >= 0; q = c.find(lb, q+1, c.reach) {
		c.front = min(c.front, q)
		c.due = append(c.due, q)
	}
}

// find returns the first position in [from, limit) at which lb is queued, or
// -1.
func (c *Client) find(lb, from, limit int64) int64 {
	for i := c.segAt(from); i < len(c.hints); i++ {
		s := &c.hints[i]
		if s.pos >= limit {
			break
		}
		if k := lb - s.firstLB; k >= 0 && k < s.nBlocks {
			if q := s.pos + k; q >= from && q < limit {
				return q
			}
		}
	}
	return -1
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

// PumpWork is the pump's effort so far; every count is deterministic for a
// run.
type PumpWork struct {
	Walks  int64 // passes a client made over its window: one per visit to an open client
	Steps  int64 // window positions those passes visited, from the front on (what they skipped is not a step)
	Visits int64 // clients the pump looked at (Client.pump entries)

	// PartitionSums counts the passes over every client slot that recomputed
	// the partition shares.
	PartitionSums int64
}

// PumpWork returns the pump's effort so far.
func (m *Manager) PumpWork() PumpWork { return m.work }

// pump issues this client's hint-driven prefetches up to its effective
// horizon. The pass starts at the client's front and skips what it has
// examined while the disks it would need are full (Client.front). It stores
// no distance — the cache computes one from a block's position (cache.Dist) —
// and holds the distances of the blocks it passes by without reaching.
func (c *Client) pump() {
	m := c.m
	m.work.Visits++
	if c.closed {
		return
	}
	m.work.Walks++
	c.unrefuse()
	horizon := c.effHorizon()
	bs := int64(m.fs.BlockSize())
	base := c.base(bs)
	end := base + int64(horizon)
	// A depth bound, a demotion or a dead disk makes what a position needs
	// depend on more than its block: such a pass visits every position, and
	// leaves nothing examined for the next.
	full := c.conf || len(m.demoted) > 0 || m.arr.DeadCount() > 0
	if full {
		c.front, c.reach = 0, 0
	}
	p := min(max(c.front, base), end)
	reach := max(c.reach, p)
	open, whole, compare := min(end, c.tail), p == base, false
	// What this pass causes moves these back; endPass folds in its own.
	c.front, c.reach = open, open
	slices.Sort(c.due)
	due, n0 := c.due, len(c.due)
	m.acting = c.id
	m.cache.BeginPass(c.id, base)
	m.cache.Reach(c.id, p)
	// kept is what the disk set says of the examined window this pass may
	// skip; c.disks collects what changes during the pass.
	kept := c.disks
	c.disks = 0
	skip := c.roomless(kept)
	var seen uint64 // the disks of the missing blocks this pass found
walk:
	for i := c.segAt(p); p < end && i < len(c.hints); {
		seg := &c.hints[i]
		k := p - seg.pos
		if k >= seg.nBlocks {
			i++
			continue
		}
		for len(due) > 0 && due[0] < p {
			due = due[1:]
		}
		if p < reach && (len(due) == 0 || due[0] != p) {
			// Before reach only a due position, or a missing block on a disk
			// with a free slot, needs a visit: the disks of the others are
			// full and turn the pass away.
			to := reach
			if !skip {
				to = c.roomy(i, p, reach)
			}
			if to > p {
				open = min(open, p)
				p, whole = min(to, end), false
				c.refuse(kept)
				if len(due) > 0 && due[0] < p {
					p = due[0]
				}
				m.cache.Reach(c.id, p)
				i = c.segAt(p)
				continue
			}
		}
		m.work.Steps++
		lb, q, d := seg.firstLB+k, p, p-base
		p++
		// A statically synthesized hint prefetches only within its
		// confidence-scaled share of the horizon: proved segments (conf 1)
		// run to the full depth, speculative ones stop shallow. conf == 0
		// (dynamic hints) leaves the bound at the horizon.
		if seg.conf > 0 && d >= min(int64(horizon), max(int64(seg.conf*float64(horizon)), int64(m.cfg.MinHorizon))) {
			c.hold(lb, q)
			continue
		}
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
			c.hold(lb, q)
			continue
		}
		m.cache.Reach(c.id, p)
		if b := m.cache.Get(lb); b != nil {
			compare = c.protect(b, lb, q, d) || compare
			c.compare = c.compare || compare
			continue
		}
		m.actLB = lb
		switch m.startFetch(c.id, lb, cache.OriginHint, q) {
		case fetchStarted:
			c.maxPos = max(c.maxPos, q)
			c.stats.HintPrefetches++
			if m.obs.Enabled() {
				m.emit("prefetch", "client=%d lb=%d dist=%d", c.id, lb, d)
			}
			skip = c.roomless(kept)
		case fetchDiskBusy:
			// This disk is at depth; later blocks may differ.
			open = min(open, q)
			seen |= diskBit(dk)
			m.refusers[dk].add(c.id)
		case fetchNoBuffer:
			open = min(open, q)
			seen |= diskBit(dk)
			c.stale()
			break walk // cache pressure: stop pumping this client
		}
	}
	m.acting = -1
	// Positions made due by this pass's own changes were appended after the
	// ones it visited.
	c.due = c.due[:copy(c.due, c.due[n0:])]
	if !whole {
		seen |= kept
	}
	c.endPass(p, open, seen, whole, compare)
	if full {
		c.front, c.reach = 0, 0
	}
}

// segAt returns the index of the queued segment holding position p, or
// len(c.hints) if none does.
func (c *Client) segAt(p int64) int {
	lo, hi := c.head, len(c.hints)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s := &c.hints[mid]; s.pos+s.nBlocks <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// protect makes c the owner of the resident block b, at position p and
// distance d, if c is nearer to it than its distance says. It reports a block
// left to a nearer owner, or at a held distance: one a later base may make c
// want.
func (c *Client) protect(b *cache.Block, lb, p, d int64) bool {
	m := c.m
	if m.cache.Dist(b) > d {
		m.actLB = lb
		m.cache.SetHintFor(lb, c.id, p)
		c.maxPos = max(c.maxPos, p)
		return false
	}
	return b.Owner != c.id || b.Held()
}

// hold keeps the distance of c's block at position p, which the pass passes
// by without refreshing it.
func (c *Client) hold(lb, p int64) {
	if b := c.m.cache.Get(lb); b != nil && b.Owner == c.id && b.HintPos == p {
		c.m.cache.Hold(b)
	}
}

// endPass ends a pass that stopped at position stop, leaving open as the
// first position a later pass may have to visit and seen as the disks of the
// missing blocks in what it examined. whole says the pass visited every
// position from its base, and compare that it left a block whose comparison
// moves with the base (which it has told c.compare as it went, so that a
// change to that block during the pass is not missed).
func (c *Client) endPass(stop, open int64, seen uint64, whole, compare bool) {
	m := c.m
	if stop <= c.maxPos {
		// Not reached: these keep the distance the last pass to reach them
		// gave them.
		m.cache.HoldFrom(c.id, stop)
		c.maxPos = stop - 1
	}
	m.cache.EndPass(c.id)
	c.front = min(c.front, open, stop)
	c.reach = min(c.reach, stop)
	c.disks |= seen
	if whole {
		c.compare = compare
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
// disk request. A prefetch is refused before any buffer is taken, so a refusal
// leaves no trace: when its disk is at the depth bound or dead (degraded
// mode). Demand fetches are always submitted — a dead disk answers them with
// ErrDead, which surfaces to the reader as a read error.
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
	m.submit(lb, dk, phys, pri)
	return fetchStarted
}

// submit sends the disk request for the in-transit block lb and records it. A
// retry reuses the block's record, failed-attempt count included.
func (m *Manager) submit(lb int64, dk int, phys int64, pri disk.Priority) {
	f := m.fetches[lb]
	if f == nil {
		f = m.newFetch(lb)
		m.fetches[lb] = f
	}
	f.Disk, f.PhysBlock, f.Pri = dk, phys, pri
	m.arr.Submit(&f.Request)
	f.queued = true
	if pri == disk.Prefetch {
		m.prefDepth[dk]++
	}
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
		}
	}
	if err != nil {
		m.handleFetchError(f, err)
	} else {
		delete(m.fetches, lb)
		m.releaseFetch(f)
		if m.demoted[lb] {
			delete(m.demoted, lb)
			m.blockChanged(lb, 0, cache.NoHint)
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
