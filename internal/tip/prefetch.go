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
// visits the clients whose pass can act (nextVisit), each once and in
// ascending id order for determinism. A client woken behind the cursor waits
// for the next pump. One client running out of buffers does not stop the
// others (their partitions may still have room).
func (m *Manager) pump() {
	if m.cfg.IgnoreHints {
		return
	}
	if !m.shares.valid || m.shares.seen != m.work.PartitionSums {
		// The shares moved since the last look: a starved client may have room.
		for dk := 0; dk < len(m.hungry) && m.waits > 0; dk++ {
			for s, id := m.hungry[dk], m.hungry[dk].next(0); id >= 0; id = s.next(id + 1) {
				if p := m.partition(id); p == 0 || m.cache.HintedCount(id) < p {
					m.woken.add(id)
				}
			}
		}
		m.shares.seen = m.work.PartitionSums
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
		if id = m.nextVisit(id); id < 0 {
			return
		}
		m.woken.del(id)
		m.clients[id].pump()
	}
}

// nextVisit returns the smallest id at least from that is woken or pulled by a
// disk (one with a free slot its refusers, a full one its hungry), or -1: any
// other waiting client's pass would repeat its last.
func (m *Manager) nextVisit(from int) int {
	next := m.woken.next(from)
	for dk := 0; dk < len(m.prefDepth) && m.waits > 0 && m.cfg.MaxDepthPerDisk > 0; dk++ {
		s := m.refusers[dk]
		if m.prefDepth[dk] >= m.cfg.MaxDepthPerDisk {
			s = m.hungry[dk]
		}
		if id := s.next(from); id >= 0 && (next < 0 || id < next) {
			next = id
		}
	}
	return next
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

// granuleShift sizes the granules of Manager.interest: 64 blocks. blockChanged
// asks every client that has hinted into a granule, until it closes.
const granuleShift = 6

// stale wakes the client: it walks at its next visit.
func (c *Client) stale() { c.m.woken.add(c.id) }

// waitOn enters c in s, one disk's refusers or hungry set.
func (c *Client) waitOn(s *clientSet) {
	s.add(c.id)
	if !c.waiting {
		c.waiting, c.m.waits = true, c.m.waits+1
	}
}

// unwait takes c out of every set it waits in on a disk.
func (c *Client) unwait() {
	if !c.waiting {
		return
	}
	for dk := range c.m.refusers {
		c.m.refusers[dk].del(c.id)
		c.m.hungry[dk].del(c.id)
	}
	c.hungry, c.waiting, c.m.waits = -1, false, c.m.waits-1
}

// blockChanged is the cache's change hook: lb's residency or protection
// changed, and before it the block was at position pos of owner's stream
// (cache.SetOnChange). It wakes a client when the change records a gap or a due
// position in its examined window (Client.reach), when it examined nothing and
// queues lb, and when it is lb's starved owner; any other pass stays as it was.
func (m *Manager) blockChanged(lb int64, owner int, pos int64) {
	hinted := pos != cache.NoHint && pos != cache.WasAbsent
	for _, c := range m.interest[lb>>granuleShift] {
		if c.id == m.acting && lb == m.actLB {
			continue // the running pass's own admit or protect
		}
		if c.reach <= c.at && c.find(lb, c.at, min(c.at+int64(c.effHorizon()), c.tail)) >= 0 ||
			hinted && owner == c.id && c.hungry >= 0 {
			c.stale()
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

// missing records that lb, which has left the cache, may be at positions c
// examined: a pass may fetch it again. Each becomes a gap.
func (c *Client) missing(lb int64) {
	for q := c.find(lb, c.at, c.reach); q >= 0; q = c.find(lb, q+1, c.reach) {
		c.mark(q, c.m.arr.DiskOf(lb), true)
		c.stale()
	}
}

// gapAt returns the index of the first gap at or after position p.
func (c *Client) gapAt(p int64) int {
	lo, hi, key := 0, len(c.gaps), p*int64(len(c.m.prefDepth))
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); c.gaps[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mark enters position p, whose block is on disk dk, in the index if the
// block is missing, and takes it out if not.
func (c *Client) mark(p int64, dk int, missing bool) {
	i, v := c.gapAt(p), p*int64(len(c.m.prefDepth))+int64(dk)
	if at := i < len(c.gaps) && c.gaps[i] == v; missing && !at {
		if cap(c.gaps) == 0 {
			c.gaps = make([]int64, 0, 16) // most windows that have one reach a few
		}
		c.gaps = slices.Insert(c.gaps, i, v)
	} else if !missing && at {
		c.gaps = slices.Delete(c.gaps, i, i+1)
	}
}

// roomy returns the first gap in [p, limit) on a disk with a free prefetch
// slot, or limit. The full disks of the gaps it passes turn c away; once
// every disk has, no later gap can start.
func (c *Client) roomy(p, limit int64) int64 {
	m := c.m
	var full uint64 // the disks found full, while there are at most 64
	all := uint64(1)<<len(m.prefDepth) - 1
	nd := int64(len(m.prefDepth))
	for _, v := range c.gaps[c.gapAt(p):] {
		q, dk := v/nd, int(v%nd)
		if q >= limit || full == all && nd <= 64 {
			break
		}
		if m.cfg.MaxDepthPerDisk == 0 || m.prefDepth[dk] < m.cfg.MaxDepthPerDisk {
			return q
		}
		if bit := uint64(1) << dk; full&bit == 0 {
			full |= bit
			c.waitOn(&m.refusers[dk])
		}
	}
	return limit
}

// unclaimed makes the next pass visit every position c examined that holds
// lb, which is resident now and not c's, even with every disk full.
func (c *Client) unclaimed(lb int64) {
	for q := c.find(lb, c.at, c.reach); q >= 0; q = c.find(lb, q+1, c.reach) {
		c.due = append(c.due, q)
		c.stale()
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
	Steps  int64 // window positions those passes visited (what they skipped is not a step)
	Visits int64 // clients the pump looked at (Client.pump entries)

	// PartitionSums counts the passes over every client slot that recomputed
	// the partition shares.
	PartitionSums int64
}

// PumpWork returns the pump's effort so far.
func (m *Manager) PumpWork() PumpWork { return m.work }

// pump issues this client's hint-driven prefetches up to its effective
// horizon. Before its reach the pass visits only the due positions and the
// gaps on a disk with a free slot (Client.gaps). It stores no distance: it
// moves its stream's base in the cache to where it starts (cache.SetBase), and
// the cache computes a block's distance from its position (cache.Dist).
func (c *Client) pump() {
	m := c.m
	m.work.Visits++
	if c.closed {
		return
	}
	m.work.Walks++
	c.unwait()
	bs := int64(m.fs.BlockSize())
	base := c.base(bs)
	end := base + int64(c.effHorizon())
	// A demotion or a dead disk makes what a position needs depend on more
	// than its block: such a pass visits every position, and leaves nothing
	// examined for the next.
	full := len(m.demoted) > 0 || m.arr.DeadCount() > 0
	if full {
		c.forget()
	}
	p, reach := base, max(c.reach, base)
	c.gaps = slices.Delete(c.gaps, 0, c.gapAt(p)) // consumed
	whole, compare := true, false
	// While the pass runs, a block leaving the cache anywhere in the window
	// becomes a gap; endPass keeps those before where the pass stopped.
	c.reach = min(end, c.tail)
	slices.Sort(c.due)
	due, n0 := c.due, len(c.due)
	m.acting = c.id
	m.cache.SetBase(c.id, base)
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
			// Before reach only a due position, or a gap on a disk with a
			// free slot, needs a visit: the disks of the other gaps are full
			// and turn the pass away.
			if to := c.roomy(p, reach); to > p {
				p, whole = min(to, end), false
				if len(due) > 0 && due[0] < p {
					p = due[0]
				}
				i = c.segAt(p)
				continue
			}
		}
		m.work.Steps++
		lb, q, d := seg.firstLB+k, p, p-base
		p++
		if len(m.demoted) > 0 && m.demoted[lb] {
			// Repeatedly failing block: left to the demand read, so the
			// rest of the hinted sequence keeps prefetching.
			continue
		}
		dk := m.arr.DiskOf(lb)
		if m.arr.Dead(dk) {
			// Degraded mode: no prefetching onto a dead disk.
			continue
		}
		if b := m.cache.Get(lb); b != nil {
			c.mark(q, dk, false)
			compare = c.protect(b, lb, q, d) || compare
			c.compare = c.compare || compare
			continue
		}
		m.actLB = lb
		res := m.startFetch(c.id, lb, cache.OriginHint, q)
		c.mark(q, dk, res != fetchStarted)
		switch res {
		case fetchStarted:
			c.stats.HintPrefetches++
			if m.obs.Enabled() {
				m.emit("prefetch", "client=%d lb=%d dist=%d", c.id, lb, d)
			}
			if k == seg.nBlocks-1 {
				c.rideAlong(seg.file, lb, seg.nBlocks)
			}
		case fetchDiskBusy:
			// This disk is at depth; later blocks may differ.
			c.waitOn(&m.refusers[dk])
		case fetchNoBuffer:
			if p := m.partition(c.id); p > 0 && m.cache.HintedCount(c.id) >= p {
				c.hungry = dk
				c.waitOn(&m.hungry[dk])
			} else {
				c.stale()
			}
			break walk // cache pressure: stop pumping this client
		}
	}
	m.acting = -1
	// Positions made due by this pass's own changes were appended after the
	// ones it visited.
	c.due = c.due[:copy(c.due, c.due[n0:])]
	c.endPass(p, whole, compare)
	if full {
		c.forget()
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
		return false
	}
	return b.Owner != c.id || b.Held()
}

// endPass ends a pass that stopped at position stop: the gaps from stop on
// are not examined any more. whole says the pass visited every
// position from its base, and compare that it left a block whose comparison
// moves with the base (which it has told c.compare as it went, so that a
// change to that block during the pass is not missed).
func (c *Client) endPass(stop int64, whole, compare bool) {
	c.reach = min(c.reach, stop)
	c.gaps = c.gaps[:c.gapAt(c.reach)]
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
	m.submit(lb, dk, phys, pri, false)
	return fetchStarted
}

// rideAlong fetches the blocks that physically follow lb, whose hinted
// prefetch has just started and which is the last block of a hinted segment
// of n blocks in f. Sequential read-ahead would give an unhinted read of the
// segment these blocks, and a hinted read never triggers it; the disk streams
// each from its track buffer, where a later read would pay a positioning.
// The run is at most n blocks and ReadaheadMax, stays in f and on lb's disk,
// and stops at a block cached or in flight. It is fetched only while the
// cache has a free buffer for every block of f from lb on, so it evicts
// nothing, and it takes no depth slot: the disk serves it as the tail of lb's
// read (disk.Request.RideAlong).
func (c *Client) rideAlong(f *fsim.File, lb, n int64) {
	m := c.m
	start, dk := f.LogicalBlock(0), m.arr.DiskOf(lb)
	if m.arr.Dead(dk) || int64(m.cache.Capacity()-m.cache.Len()) < f.NBlocks()-(lb-start) {
		return
	}
	for next := lb + 1; next <= lb+min(n, int64(m.cfg.ReadaheadMax)) && next-start < f.NBlocks(); next++ {
		d, phys := m.arr.Map(next)
		if d != dk || m.cache.Get(next) != nil || m.cache.AcquireFor(c.id, next, cache.OriginReadahead, cache.NoHint) == nil {
			return
		}
		m.submit(next, dk, phys, disk.Prefetch, true)
		c.stats.RideAlongs++
		if m.obs.Enabled() {
			m.emit("ride-along", "client=%d lb=%d after=%d", c.id, next, lb)
		}
	}
}

// submit sends the disk request for the in-transit block lb and records it;
// ride marks a ride-along, which takes no depth slot. A retry reuses the
// block's record, failed-attempt count included.
func (m *Manager) submit(lb int64, dk int, phys int64, pri disk.Priority, ride bool) {
	f := m.fetches[lb]
	if f == nil {
		f = m.newFetch(lb)
		m.fetches[lb] = f
	}
	f.Disk, f.PhysBlock, f.Pri, f.RideAlong = dk, phys, pri, ride
	m.arr.Submit(&f.Request)
	f.queued = true
	if pri == disk.Prefetch && !ride {
		m.prefDepth[dk]++
	}
}

// onFetchDone is the completion of f's request. f is released once it is out
// of fetches, so it is read first and not touched after.
func (m *Manager) onFetchDone(f *fetch, err error) {
	lb, dk := f.lb, f.Disk
	f.queued = false
	if f.Pri == disk.Prefetch && !f.RideAlong {
		m.prefDepth[dk]-- // a free slot on dk pulls the clients it turned away (nextVisit)
	}
	if err != nil {
		m.handleFetchError(f, err)
	} else {
		// Once valid the block can be evicted for a nearer one of its owner's.
		owner := -1
		if b := m.cache.Get(lb); b != nil && b.HintPos != cache.NoHint {
			owner = b.Owner
			if m.clients[owner].hungry >= 0 {
				m.woken.add(owner)
			}
		}
		delete(m.fetches, lb)
		m.releaseFetch(f)
		if m.demoted[lb] {
			delete(m.demoted, lb)
			m.blockChanged(lb, 0, cache.NoHint)
		}
		m.cache.Complete(lb)
		// A waiter that ran while the block was still pinned for the next may
		// have pumped and found it unevictable: the owner starved again.
		if owner >= 0 && m.clients[owner].hungry >= 0 {
			m.woken.add(owner)
		}
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
