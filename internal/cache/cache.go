// Package cache implements the file (buffer) cache that TIP manages: a fixed
// pool of block-sized buffers indexed by global logical block number, with an
// LRU list for unhinted blocks and hint-distance-aware eviction for hinted
// ones.
//
// The cache tracks timing state only — block *content* always comes from the
// simulated file system, which is what lets the simulation stay cheap while
// still accounting hits, misses, partial prefetches and evictions exactly.
package cache

import (
	"fmt"
	"math"

	"spechint/internal/obs"
	"spechint/internal/sim"
)

// State is a cache block's lifecycle state.
type State uint8

const (
	// Absent blocks are not in the cache (Get returns nil instead).
	Absent State = iota
	// InTransit blocks have a disk request outstanding.
	InTransit
	// Valid blocks hold data.
	Valid
)

// NoHint marks a block with no outstanding hint.
const NoHint = int64(math.MaxInt64)

// WasAbsent is the position the change hook reports for a block that was not
// in the cache before the change (an admission).
const WasAbsent = int64(-1)

// Origin records how a block entered the cache, for the Table 5 accounting.
type Origin uint8

const (
	// OriginDemand blocks were fetched by a blocking read.
	OriginDemand Origin = iota
	// OriginHint blocks were prefetched from an application hint.
	OriginHint
	// OriginReadahead blocks were prefetched by the sequential read-ahead policy.
	OriginReadahead
)

func (o Origin) String() string {
	switch o {
	case OriginDemand:
		return "demand"
	case OriginHint:
		return "hint"
	case OriginReadahead:
		return "readahead"
	}
	return "origin"
}

// Block is one cache buffer. A Block is recycled: once evicted or failed it
// goes back to the cache's free list and a later admit hands it out again, so
// a *Block is only good until the block it describes leaves the cache (see
// release).
type Block struct {
	LB      int64 // global logical block number
	HintPos int64 // position in the owner's hint stream; NoHint if unhinted
	Owner   int   // hint-stream (client) id holding the hint protection;
	// meaningful only while HintPos != NoHint

	// heldBase is the base a held distance is measured from (see Dist); -1
	// while the distance follows the owner's base.
	heldBase int64

	// The fields below are sized and ordered so that a Block fits the 96-byte
	// allocation class.
	waiters    []Waiter
	prev, next *Block // LRU neighbours (valid blocks only); next also links the free list
	stamp      uint64 // LRU position as a number: larger is nearer the MRU end (valid blocks only)
	uses       int32  // demand accesses since arrival
	ownIdx     int32  // index in own[Owner]; meaningful only while HintPos != NoHint
	Origin     Origin
	state      State
	demanded   bool // a demand read upgraded/waited on this block
	pinned     bool // Complete is waking waiters and one is still to run: not evictable
}

// Waiter is told how the in-transit block lb resolved: valid=true from
// Complete, valid=false from Fail. It gets the block number rather than
// capturing it, so one bound function can wait on any number of blocks.
type Waiter func(lb int64, valid bool)

// State returns the block's lifecycle state.
func (b *Block) State() State { return b.state }

// Demanded reports whether the block is on an application's critical path: it
// was fetched by a demand read, or a demand read is waiting on it
// (NoteDemandWait). The fetch-retry policy keys off this — demanded blocks
// retry until their disk dies, mere prefetches give up and demote.
func (b *Block) Demanded() bool { return b.demanded || b.Origin == OriginDemand }

// Stats is the cache-side slice of the paper's Table 5.
type Stats struct {
	Hits         int64 // demand accesses served by a Valid block
	FullyPref    int64 // prefetched blocks whose fetch completed before first demand
	PartialWaits int64 // demand accesses that waited on an in-transit prefetched block
	Misses       int64 // demand accesses requiring a new disk fetch
	Reuses       int64 // second-or-later demand access to the same buffer
	EvictedClean int64 // valid blocks evicted
	UnusedHint   int64 // hint-prefetched blocks evicted (or left) with zero uses
	UnusedRA     int64 // readahead-prefetched blocks evicted (or left) with zero uses
	FailedLoads  int64 // in-transit blocks resolved to an error (Fail)

	// Multiprogramming isolation counters. CrossHintEvicts counts hinted
	// blocks evicted by a *hinted* request from a different owner (the
	// cost-benefit comparison allows this). UnhintedCrossEvicts counts hinted
	// blocks evicted by another owner's *unhinted* traffic — the partition
	// policy forbids it, so the counter must stay zero; internal/multi
	// asserts this.
	CrossHintEvicts     int64
	UnhintedCrossEvicts int64
}

// Cache is the buffer pool. It is not safe for concurrent use; the simulation
// is single-threaded by construction.
type Cache struct {
	capacity int
	blocks   blockTable
	lruHead  *Block // the LRU end, where eviction looks first
	lruTail  *Block // the MRU end
	tick     uint64 // source of Block.stamp: bumped whenever a block moves to the MRU end
	unhinted int    // valid blocks with no hint: the candidates of evictFor's case 1
	stats    Stats

	// Free lists, grown on demand: released Blocks linked through next, and
	// the emptied waiter slices of resolved blocks.
	free        *Block
	freeWaiters [][]Waiter

	// poison is set by tests only: a released Block is overwritten with
	// poisonedBlock and a released waiter slice with poisonedWaiter, and
	// neither is handed out again, so a use after release panics or shows.
	poison bool

	// Each owner's resident hinted blocks (in transit or valid, in no
	// particular order): an owner's furthest-out block is found without
	// walking the LRU list past every other owner's blocks.
	own map[int][]*Block

	// partitionOf, when set, caps each owner's resident hinted blocks (0 =
	// unlimited); only a hinted AcquireFor asks it. The TIP manager answers
	// from its cost-benefit allocation across competing hinted processes.
	// Nil means no caps.
	partitionOf func(owner int) int

	// onChange, when set, is told the block number and what the block was
	// before (owner and HintPos; NoHint if unhinted, WasAbsent if not cached)
	// whenever what Get(lb) answers changes: the block is admitted, evicted or
	// failed, or its (HintPos, Owner) is rewritten.
	onChange func(lb int64, owner int, pos int64)

	// bases holds each owner's stream base, set when its pass starts
	// (SetBase), from which a hinted block's distance is computed when it is
	// read (Dist). Indexed by owner; an owner beyond it measures from 0.
	bases []int64

	// accuracyOf, when set, supplies each owner's recent hint accuracy so
	// that cross-owner evictions can compare marginal benefit
	// (accuracy/distance) rather than raw distance. Nil means all owners are
	// equally reliable.
	accuracyOf func(owner int) float64

	// obs (with its clock source) records admit/evict/fail events on the
	// "cache" lane. The cache itself has no clock, so the installer (the TIP
	// manager) supplies one.
	obs    *obs.Trace
	obsNow func() sim.Time
}

// New returns a cache with the given capacity in blocks.
func New(capacity int) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: capacity %d", capacity))
	}
	return &Cache{
		capacity: capacity,
		own:      make(map[int][]*Block),
	}
}

// SetAccuracyFn installs the per-owner hint-accuracy source used by the
// cross-owner marginal-benefit comparison.
func (c *Cache) SetAccuracyFn(fn func(owner int) float64) { c.accuracyOf = fn }

// SetPartitionFn installs the per-owner cap on resident hinted blocks (0 =
// unlimited) that a hinted AcquireFor enforces.
func (c *Cache) SetPartitionFn(fn func(owner int) int) { c.partitionOf = fn }

// SetOnChange installs the residency hook: fn(lb, owner, pos) runs after every
// admit, evict, Fail and SetHintFor of block lb, before any waiter is
// woken, with the (Owner, HintPos) the block had before (pos NoHint: it was
// unhinted; WasAbsent: it was not cached). It must not call back into the
// cache.
func (c *Cache) SetOnChange(fn func(lb int64, owner int, pos int64)) { c.onChange = fn }

// changed reports lb and its previous owner and position to the residency hook.
func (c *Cache) changed(lb int64, owner int, pos int64) {
	if c.onChange != nil {
		c.onChange(lb, owner, pos)
	}
}

// Dist returns b's hint distance: NoHint if unhinted, else its position less
// its owner's base, or less the base it was held at (Hold).
func (c *Cache) Dist(b *Block) int64 {
	switch {
	case b.HintPos == NoHint:
		return NoHint
	case b.heldBase >= 0:
		return b.HintPos - b.heldBase
	}
	return b.HintPos - c.base(b.Owner)
}

// base returns owner's base; an owner without one measures from 0.
func (c *Cache) base(owner int) int64 {
	if owner < len(c.bases) {
		return c.bases[owner]
	}
	return 0
}

// SetBase moves owner's stream base to at: every distance of owner's that is
// not held is measured from it.
func (c *Cache) SetBase(owner int, at int64) {
	for len(c.bases) <= owner {
		c.bases = append(c.bases, 0)
	}
	c.bases[owner] = at
}

// Held reports whether b's distance is held rather than following its
// owner's base.
func (b *Block) Held() bool { return b.heldBase >= 0 }

// Hold fixes the hinted block b's distance at its current value: a later
// change of its owner's base no longer moves it. SetHintFor lets it follow
// again.
func (c *Cache) Hold(b *Block) {
	if b.HintPos != NoHint && b.heldBase < 0 {
		b.heldBase = c.base(b.Owner)
	}
}

// SetObs installs a cross-layer trace and a virtual-clock source for
// timestamping cache events (the cache holds no clock of its own).
func (c *Cache) SetObs(tr *obs.Trace, now func() sim.Time) {
	c.obs = tr
	c.obsNow = now
}

// emit records a cache event when tracing is on.
func (c *Cache) emit(name, format string, args ...any) {
	if c.obs.Enabled() && c.obsNow != nil {
		c.obs.Emitf(c.obsNow(), "cache", "cache", name, format, args...)
	}
}

// HintedCount returns owner's current resident hinted-block count.
func (c *Cache) HintedCount(owner int) int { return len(c.own[owner]) }

// list enters the hinted block b in its owner's list.
func (c *Cache) list(b *Block) {
	l := c.own[b.Owner]
	b.ownIdx = int32(len(l))
	c.own[b.Owner] = append(l, b)
}

// unlist takes the hinted block b out of its owner's list.
func (c *Cache) unlist(b *Block) {
	l := c.own[b.Owner]
	last := l[len(l)-1]
	l[b.ownIdx] = last
	last.ownIdx = b.ownIdx
	l[len(l)-1] = nil
	c.own[b.Owner] = l[:len(l)-1]
}

// Capacity returns the pool size in blocks.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of buffers in use (valid + in transit).
func (c *Cache) Len() int { return c.blocks.n }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Get returns the block for lb, or nil if absent.
func (c *Cache) Get(lb int64) *Block { return c.blocks.get(lb) }

// Acquire allocates a buffer for owner 0 — the single-process form; see
// AcquireFor.
func (c *Cache) Acquire(lb int64, origin Origin, pos int64) *Block {
	return c.AcquireFor(0, lb, origin, pos)
}

// AcquireFor allocates a buffer for lb in the InTransit state on behalf of
// the given hint-stream owner, evicting a less-valuable block if the pool is
// full. pos is the block's position in the requesting stream (NoHint for
// demand fetches and readahead, which use LRU value only), and its distance
// is pos less the stream's current base. It returns nil if no buffer could
// be freed — every cached block is either in transit or more valuable than
// the request.
//
// AcquireFor panics if lb is already present (callers must check Get first)
// or negative.
func (c *Cache) AcquireFor(owner int, lb int64, origin Origin, pos int64) *Block {
	if lb < 0 {
		panic(fmt.Sprintf("cache: Acquire of negative block number %d", lb))
	}
	if c.blocks.get(lb) != nil {
		panic(fmt.Sprintf("cache: Acquire of present block %d", lb))
	}
	hintDist := pos
	if pos != NoHint {
		hintDist -= c.base(owner)
	}
	if hintDist != NoHint && c.partitionOf != nil {
		if max := c.partitionOf(owner); max > 0 && len(c.own[owner]) >= max {
			// The owner's hinted partition is full: the stream competes with
			// itself, reclaiming its own furthest-out hinted block — never
			// another process's.
			if !c.evictOwnFurthest(owner, hintDist) {
				return nil
			}
		}
	}
	if c.blocks.n >= c.capacity {
		if !c.evictFor(owner, origin, hintDist) {
			return nil
		}
	}
	b := c.free
	if b != nil && !c.poison {
		c.free = b.next
	} else {
		b = new(Block)
	}
	*b = Block{LB: lb, Origin: origin, HintPos: pos, Owner: owner, heldBase: -1, state: InTransit}
	c.blocks.set(lb, b)
	if pos != NoHint {
		c.list(b)
	}
	c.changed(lb, owner, WasAbsent)
	if c.obs.Enabled() {
		c.emit("admit", "lb=%d origin=%s owner=%d used=%d/%d", lb, origin, owner, c.blocks.n, c.capacity)
	}
	return b
}

// poisonedBlock is what a released Block holds when Cache.poison is set: a
// block number no table holds and a state every transition rejects, pinned so
// that a late write to the flag shows.
var poisonedBlock = Block{LB: -1, state: Absent, pinned: true}

// poisonedWaiter fills a released waiter slice when Cache.poison is set.
func poisonedWaiter(lb int64, valid bool) {
	panic(fmt.Sprintf("cache: waiter slice of block %d run after release", lb))
}

// release puts b on the free list. The caller guarantees nothing can reach b
// any more: it is out of the table, the LRU list and its owner's list, and
// no waiter of it is still to run.
func (c *Cache) release(b *Block) {
	if c.poison {
		*b = poisonedBlock
	}
	b.next = c.free
	c.free = b
}

// waitersFor returns an empty waiter slice with room, from the free list if
// one is there.
func (c *Cache) waitersFor() []Waiter {
	if n := len(c.freeWaiters); n > 0 && !c.poison {
		ws := c.freeWaiters[n-1]
		c.freeWaiters = c.freeWaiters[:n-1]
		return ws
	}
	return nil
}

// releaseWaiters puts the waiter slice of a resolved block on the free list,
// once every waiter in it has run.
func (c *Cache) releaseWaiters(ws []Waiter) {
	if cap(ws) == 0 {
		return
	}
	if c.poison {
		for i := range ws {
			ws[i] = poisonedWaiter
		}
	} else {
		clear(ws)
	}
	c.freeWaiters = append(c.freeWaiters, ws[:0])
}

// evictOwnFurthest evicts owner's furthest-out valid hinted block, provided
// it is further out than the incoming distance (ejecting a hinted block to
// fetch data needed even later is never beneficial). Of several equally far
// out it takes the least recently used — the one a walk of the LRU list from
// the front would meet first.
func (c *Cache) evictOwnFurthest(owner int, incoming int64) bool {
	var victim *Block
	var far int64
	for _, b := range c.own[owner] {
		if b.state != Valid || b.pinned {
			continue
		}
		if d := c.Dist(b); victim == nil || d > far || d == far && b.stamp < victim.stamp {
			victim, far = b, d
		}
	}
	if victim == nil || far <= incoming {
		return false
	}
	if victim.Owner != owner {
		// Unreachable under the partition policy (the candidates are the
		// owner's own list); the counter is a tripwire for internal/multi's isolation
		// assertion should the policy ever regress.
		c.stats.UnhintedCrossEvicts++
	}
	c.evict(victim)
	return true
}

// accuracy returns the owner's hint accuracy for benefit comparisons.
func (c *Cache) accuracy(owner int) float64 {
	if c.accuracyOf == nil {
		return 1
	}
	return c.accuracyOf(owner)
}

// evictFor frees one buffer for a request with the given origin, owner and
// hint distance. Policy (a simplification of TIP's cost-benefit analysis,
// extended across competing hinted processes):
//
//  1. Prefer the LRU unhinted valid block — the shared pool.
//  2. Unhinted traffic (demand fetches, sequential read-ahead) may reclaim
//     only the requesting process's OWN hinted blocks, furthest first:
//     demand always wins against its own stream (stalling the application is
//     the highest cost in the model), read-ahead never ejects hinted data.
//     Another process's hinted blocks are never victims of unhinted traffic.
//  3. A hinted fetch compares marginal benefit across every process's hinted
//     blocks: a block's benefit is its owner's recent hint accuracy divided
//     by its hint distance, and the globally least-beneficial block is
//     evicted if the incoming block is worth strictly more.
//
// In-transit and pinned blocks are never evicted.
func (c *Cache) evictFor(owner int, origin Origin, hintDist int64) bool {
	// Case 1: LRU unhinted block. A cache full of hint-protected blocks has
	// none, and says so without being walked.
	if c.unhinted > 0 {
		for b := c.lruHead; b != nil; b = b.next {
			if b.HintPos == NoHint && !b.pinned {
				c.evict(b)
				return true
			}
		}
	}
	// Case 2: unhinted traffic reclaims only its own stream's hinted blocks.
	if hintDist == NoHint {
		incoming := int64(NoHint)
		if origin == OriginDemand {
			incoming = -1 // demand data is needed now; it always wins
		}
		return c.evictOwnFurthest(owner, incoming)
	}
	// Case 3: hinted fetch — cross-process marginal-benefit comparison. A
	// block's benefit is its owner's accuracy over (its distance + 1); the
	// comparisons are cross-multiplied to avoid division.
	var victim *Block
	var vd int64
	var va float64
	for b := c.lruHead; b != nil; b = b.next {
		if b.pinned {
			continue
		}
		if d, a := c.Dist(b), c.accuracy(b.Owner); victim == nil || a*float64(vd+1) < va*float64(d+1) {
			victim, vd, va = b, d, a
		}
	}
	if victim == nil {
		return false
	}
	if va*float64(hintDist+1) < c.accuracy(owner)*float64(vd+1) {
		if victim.Owner != owner {
			c.stats.CrossHintEvicts++
		}
		c.evict(victim)
		return true
	}
	return false
}

// evict takes the valid, unpinned block b out of the cache and releases it:
// an unpinned block has no waiter still to run.
func (c *Cache) evict(b *Block) {
	c.stats.EvictedClean++
	if c.obs.Enabled() {
		c.emit("evict", "lb=%d origin=%s owner=%d uses=%d", b.LB, b.Origin, b.Owner, b.uses)
	}
	c.noteUnusedIfPrefetched(b)
	c.dropHintAccounting(b)
	if b.HintPos == NoHint {
		c.unhinted--
	}
	c.unlinkLRU(b)
	lb, owner, pos := b.LB, b.Owner, b.HintPos
	c.blocks.del(lb)
	c.release(b)
	c.changed(lb, owner, pos)
}

// pushLRU enters b at the MRU end of the LRU list.
func (c *Cache) pushLRU(b *Block) {
	b.prev, b.next = c.lruTail, nil
	if c.lruTail != nil {
		c.lruTail.next = b
	} else {
		c.lruHead = b
	}
	c.lruTail = b
	c.restamp(b)
}

// unlinkLRU takes b out of the LRU list.
func (c *Cache) unlinkLRU(b *Block) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		c.lruHead = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		c.lruTail = b.prev
	}
}

// dropHintAccounting releases b's slot in its owner's hinted partition.
func (c *Cache) dropHintAccounting(b *Block) {
	if b.HintPos != NoHint {
		c.unlist(b)
	}
}

// restamp records that b has just moved to the MRU end of the list.
func (c *Cache) restamp(b *Block) {
	c.tick++
	b.stamp = c.tick
}

func (c *Cache) noteUnusedIfPrefetched(b *Block) {
	if b.uses > 0 {
		return
	}
	switch b.Origin {
	case OriginHint:
		c.stats.UnusedHint++
	case OriginReadahead:
		c.stats.UnusedRA++
	}
}

// Complete transitions an in-transit block to Valid and wakes its waiters
// with valid=true. A waiter may re-enter the cache (its reply can dispatch
// the next read, whose fetch evicts), so the block stays pinned until the
// last waiter runs: each waiter finds it still Valid.
func (c *Cache) Complete(lb int64) {
	b := c.blocks.get(lb)
	if b == nil || b.state != InTransit {
		panic(fmt.Sprintf("cache: Complete of block %d in bad state", lb))
	}
	b.state = Valid
	c.pushLRU(b)
	if b.HintPos == NoHint {
		c.unhinted++
	}
	ws := b.waiters
	b.waiters = nil
	for i, w := range ws {
		b.pinned = i < len(ws)-1
		w(lb, true)
	}
	// The last waiter ran with b unpinned and may have evicted it, so b may be
	// released or even handed out again for another block: it is not touched
	// after the loop.
	c.releaseWaiters(ws)
}

// Fail resolves an in-transit block to an error: the buffer is released (its
// fetch returned no data, so there is nothing to cache) and every waiter is
// woken with valid=false. The block must be InTransit — failing a block in
// any other state panics, like Complete.
func (c *Cache) Fail(lb int64) {
	b := c.blocks.get(lb)
	if b == nil || b.state != InTransit {
		panic(fmt.Sprintf("cache: Fail of block %d in bad state", lb))
	}
	c.stats.FailedLoads++
	if c.obs.Enabled() {
		c.emit("fail", "lb=%d origin=%s owner=%d waiters=%d", lb, b.Origin, b.Owner, len(b.waiters))
	}
	c.dropHintAccounting(b)
	c.blocks.del(lb)
	c.changed(lb, b.Owner, b.HintPos)
	ws := b.waiters
	b.waiters = nil
	for _, w := range ws {
		w(lb, false)
	}
	// Out of the table, b is reachable only from here; its waiters have run.
	c.releaseWaiters(ws)
	c.release(b)
}

// Wait registers w to run when the in-transit block lb resolves: valid=true
// from Complete, valid=false from Fail.
func (c *Cache) Wait(lb int64, w Waiter) {
	b := c.blocks.get(lb)
	if b == nil || b.state != InTransit {
		panic(fmt.Sprintf("cache: Wait on block %d in bad state", lb))
	}
	if b.waiters == nil {
		b.waiters = c.waitersFor()
	}
	b.waiters = append(b.waiters, w)
}

// Touch records a demand access to a valid block: it moves the block to the
// MRU end and updates hit/reuse statistics.
func (c *Cache) Touch(lb int64) {
	b := c.blocks.get(lb)
	if b == nil || b.state != Valid {
		panic(fmt.Sprintf("cache: Touch of block %d in bad state", lb))
	}
	c.stats.Hits++
	if b.uses > 0 {
		c.stats.Reuses++
	} else if b.Origin != OriginDemand && !b.demanded {
		// First demand access found a prefetched block already valid: the
		// prefetch fully hid its latency (Table 5's "Fully" column).
		c.stats.FullyPref++
	}
	b.uses++
	c.unlinkLRU(b)
	c.pushLRU(b)
}

// NoteDemandWait records that a demand read is waiting on an in-transit
// block. If the block was a prefetch, its latency was only partially hidden
// (Table 5's "Partially" column).
func (c *Cache) NoteDemandWait(lb int64) {
	b := c.blocks.get(lb)
	if b == nil || b.state != InTransit {
		panic(fmt.Sprintf("cache: NoteDemandWait on block %d in bad state", lb))
	}
	if !b.demanded && b.Origin != OriginDemand {
		c.stats.PartialWaits++
	}
	b.demanded = true
}

// NoteMiss records a demand fetch for an absent block.
func (c *Cache) NoteMiss() { c.stats.Misses++ }

// SetHintFor updates a block's hint position and owner (e.g. after a
// CANCEL_ALL the block becomes unhinted; after a new hint it gains a position
// and the hinting stream takes ownership), keeping the per-owner hinted
// partition counts consistent. The block's distance follows its new owner's
// base.
func (c *Cache) SetHintFor(lb int64, owner int, pos int64) {
	b := c.blocks.get(lb)
	if b == nil {
		return
	}
	prevOwner, prevPos := b.Owner, b.HintPos
	wasHinted := prevPos != NoHint
	nowHinted := pos != NoHint
	switch {
	case wasHinted && !nowHinted:
		c.unlist(b)
		if b.state == Valid {
			c.unhinted++
		}
	case !wasHinted && nowHinted:
		b.Owner = owner
		c.list(b)
		if b.state == Valid {
			c.unhinted--
		}
	case wasHinted && nowHinted && b.Owner != owner:
		c.unlist(b)
		b.Owner = owner
		c.list(b)
	}
	b.HintPos, b.heldBase = pos, -1
	c.changed(lb, prevOwner, prevPos)
}

// ForEach visits every cached block (any state), in ascending block order.
func (c *Cache) ForEach(fn func(*Block)) { c.blocks.each(fn) }

// FlushAccounting finalizes end-of-run statistics: prefetched blocks still
// resident with zero uses are counted as unused, exactly like evictions.
func (c *Cache) FlushAccounting() {
	c.blocks.each(c.noteUnusedIfPrefetched)
}
