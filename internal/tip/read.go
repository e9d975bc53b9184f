package tip

// The demand read: which of its blocks are valid, which it joins in transit,
// which it must fetch itself, and the single completion it owes its caller.

import (
	"errors"

	"spechint/internal/cache"
	"spechint/internal/fsim"
)

// ErrReadFailed reports a demand read that could not be satisfied: at least
// one of its blocks resolved to an error with no retry left (its disk is
// dead). Transient faults never produce it — those retry until they succeed.
var ErrReadFailed = errors.New("tip: demand read failed (unrecoverable block)")

// readOp is one demand read in flight. Each block it waits for resolves
// exactly once, in the order the cache wakes its waiters (registration
// order), and touches its block immediately before counting it done.
// readOps come from the manager's free list (newReadOp); wake is op.resolve,
// bound when the op is first allocated, and serves every block it waits on.
type readOp struct {
	c         *Client
	remaining int  // blocks not yet resolved
	failed    bool // some block resolved to an error
	done      func(err error)
	wake      cache.Waiter
}

// newReadOp returns a cleared readOp for c, from the free list if it can.
func (m *Manager) newReadOp(c *Client) *readOp {
	var op *readOp
	if n := len(m.freeOps); n > 0 {
		op = m.freeOps[n-1]
		m.freeOps = m.freeOps[:n-1]
	} else {
		op = &readOp{}
		op.wake = op.resolve
	}
	op.c = c
	return op
}

// releaseReadOp clears op and puts it on the free list. The caller
// guarantees nothing reaches op any more: every block it waited on has
// resolved, it is in no pending list, and its done, if any, has been taken.
// Clearing c is also the poison: a use after release dereferences nil.
func (m *Manager) releaseReadOp(op *readOp) {
	*op = readOp{wake: op.wake}
	if !m.poison {
		m.freeOps = append(m.freeOps, op)
	}
}

// pendingFetch is a demand fetch that found no free buffer; see
// Manager.pendingDemand.
type pendingFetch struct {
	op *readOp
	lb int64
}

// touch records a demand access and releases the block's hint protection: a
// consumed block must age out by LRU like any other, or it would squat in
// the cache with a stale, ever-more-precious hint distance while fresh
// prefetches evict each other at the horizon tail. Protection held by a
// *different* client survives — that client has its own read coming.
func (op *readOp) touch(lb int64) {
	op.c.m.cache.Touch(lb)
	op.c.unprotect(lb)
}

// await makes op a waiter on the in-transit block lb.
func (op *readOp) await(lb int64) {
	op.c.m.cache.NoteDemandWait(lb)
	op.c.m.cache.Wait(lb, op.wake)
}

// resolve counts lb done — touched if it holds data, an error otherwise —
// and completes the read when it was the last block. done is still nil
// while Read itself is running: a read whose blocks all resolve before Read
// returns completes by Read's return value instead.
func (op *readOp) resolve(lb int64, valid bool) {
	if valid {
		op.touch(lb)
	} else {
		op.failed = true
	}
	op.remaining--
	if op.remaining == 0 && op.done != nil {
		done := op.done
		var err error
		if op.failed {
			err = ErrReadFailed
		}
		// Its last block has resolved and its done is taken: op is released
		// before done runs, since done may start the next read.
		op.c.m.releaseReadOp(op)
		done(err)
	}
}

// fetch brings in a block that missed: it starts the demand fetch and waits
// on it, or — a prefetch having raced in meanwhile — joins or consumes that.
// false means no buffer could be had; the manager retries on the next
// completion.
func (op *readOp) fetch(lb int64) bool {
	c := op.c
	switch blk := c.m.cache.Get(lb); {
	case blk == nil:
		if c.m.startFetch(c.id, lb, cache.OriginDemand, cache.NoHint) != fetchStarted {
			return false
		}
	case blk.State() == cache.Valid:
		op.resolve(lb, true)
		return true
	}
	op.await(lb)
	return true
}

// retryPendingDemand retries every demand fetch that found no buffer. A retry
// can complete its read, whose done may dispatch a new read re-entrantly (the
// cluster's next queued part), and that read's misses append to
// pendingDemand. So the list being retried is taken out of pendingDemand,
// which restarts on the spare buffer: an append from inside the loop can never
// land on an entry the loop has yet to read.
func (m *Manager) retryPendingDemand() {
	if len(m.pendingDemand) == 0 {
		return
	}
	pending := m.pendingDemand
	m.pendingDemand, m.pendingSpare = m.pendingSpare[:0], nil
	for _, p := range pending {
		if !p.op.fetch(p.lb) {
			m.pendingDemand = append(m.pendingDemand, p)
		}
	}
	clear(pending)
	m.pendingSpare = pending[:0]
}

// Read performs a demand read of [off, off+n) from f. hinted says whether
// the application's read found a matching hint-log entry (core decides).
// done runs when every block has resolved — with nil if all are valid, or
// ErrReadFailed if any block is unrecoverable. If everything is already
// cached, done is NOT called and Read returns true (the caller continues
// synchronously — a cache hit costs no stall).
func (c *Client) Read(f *fsim.File, off, n int64, hinted bool, done func(err error)) (immediate bool) {
	m := c.m
	hinted = hinted && !m.cfg.IgnoreHints
	first, last, end, ok := blockRange(f, off, n, int64(m.fs.BlockSize()))
	c.stats.ReadCalls++
	if hinted {
		c.stats.HintedReadCalls++
	}
	if !ok {
		return true // zero-byte or EOF read: no I/O
	}
	nBlocks := last - first + 1
	c.stats.ReadBlocks += nBlocks
	c.stats.ReadBytes += end - off
	staticTail := false
	if hinted {
		c.stats.HintedReadBlocks += nBlocks
		c.stats.HintedReadBytes += end - off
		staticTail = c.consume(f, off, n, end)
	}

	// Two passes: the blocks this read already has are touched (moved to the
	// MRU end) or joined before any miss goes looking for a buffer to evict.
	// The misses go to the manager's scratch list, taken while in use.
	op := m.newReadOp(c)
	misses := m.misses[:0]
	m.misses = nil
	for b := first; b <= last; b++ {
		lb := f.LogicalBlock(b)
		switch blk := m.cache.Get(lb); {
		case blk == nil:
			m.cache.NoteMiss()
			op.remaining++
			misses = append(misses, lb)
		case blk.State() == cache.Valid:
			op.touch(lb)
		default:
			// The application now needs this block: if its prefetch is
			// still queued, it inherits demand priority.
			if f := m.fetches[lb]; f != nil && f.queued {
				m.arr.Promote(&f.Request)
			}
			op.remaining++
			op.await(lb)
		}
	}
	for _, lb := range misses {
		if !op.fetch(lb) {
			m.pendingDemand = append(m.pendingDemand, pendingFetch{op, lb})
		}
	}
	m.misses = misses[:0]

	if !hinted || staticTail {
		c.readahead(f, off, end, first, last)
	}

	// Consuming a hint moves the horizon forward; fill it.
	m.pump()

	if op.remaining == 0 {
		m.releaseReadOp(op)
		return true
	}
	op.done = done
	return false
}

// CachedRange reports whether every block of [off, off+n) in f is Valid —
// the condition under which a *speculative* read can be given real data.
// The cache is shared, so the answer does not depend on the client asking.
func (c *Client) CachedRange(f *fsim.File, off, n int64) bool {
	first, last, _, ok := blockRange(f, off, n, int64(c.m.fs.BlockSize()))
	if !ok {
		return true
	}
	for b := first; b <= last; b++ {
		blk := c.m.cache.Get(f.LogicalBlock(b))
		if blk == nil || blk.State() != cache.Valid {
			return false
		}
	}
	return true
}
