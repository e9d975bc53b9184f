package tip

// The hint queue: disclosure (TIPIO_SEG), cancellation (TIPIO_CANCEL_ALL),
// the matching of demand reads against queued hints, and the windowed
// accuracy estimate those three feed.

import (
	"spechint/internal/cache"
	"spechint/internal/fsim"
)

// segment is one hinted (file, offset, length) from a TIPIO_SEG call.
// Reads consume segments progressively: a manual hint may disclose a whole
// file that the application then reads in many small calls, while a
// speculative hint matches exactly one read call.
//
// A file's logical blocks are contiguous (fsim allocates Start + i), so the
// hinted blocks are the range [firstLB, firstLB+nBlocks) and are never
// materialised.
type segment struct {
	file       *fsim.File
	off, n     int64
	firstBlock int64 // file block index of the first hinted block
	firstLB    int64 // its logical block number
	nBlocks    int64 // 0 for a hint that lies wholly outside the file
	consumed   int64 // high-water mark of consumed bytes from off

	// conf is the static confidence behind this hint, in (0, 1]; zero means
	// "no static evidence" (dynamically discovered hints) and leaves the
	// depth bound untouched. Statically synthesized hints carry their
	// analysis confidence here, and the pump scales this segment's prefetch
	// depth by it: proved sites earn the full horizon, speculative ones a
	// shallow bound.
	conf float64
}

// clampEnd returns the end of [off, off+n) clamped to the file.
func clampEnd(f *fsim.File, off, n int64) int64 {
	end := off + n
	if sz := f.Size(); end > sz {
		end = sz
	}
	return end
}

// blockRange returns the file-block index range [first, last] covering
// [off, off+n) clamped to the file and the clamped end, or ok=false if the
// range is empty.
func blockRange(f *fsim.File, off, n int64, blockSize int64) (first, last, end int64, ok bool) {
	if off < 0 || n <= 0 || off >= f.Size() {
		return 0, 0, 0, false
	}
	end = clampEnd(f, off, n)
	return off / blockSize, (end - 1) / blockSize, end, true
}

// dataEnd returns the end of the segment clamped to the file.
func (s *segment) dataEnd() int64 { return clampEnd(s.file, s.off, s.n) }

// consumedBlocks returns how many of the segment's blocks are fully consumed.
func (s *segment) consumedBlocks(blockSize int64) int64 {
	if s.consumed <= 0 {
		return 0
	}
	return max(0, min((s.off+s.consumed)/blockSize-s.firstBlock, s.nBlocks))
}

// HintSeg discloses a future read of [off, off+n) in f (TIPIO_SEG /
// TIPIO_FD_SEG; the two differ only in how the caller named the file).
func (c *Client) HintSeg(f *fsim.File, off, n int64) {
	c.hintSeg(f, off, n, 0)
}

// HintSegConf is HintSeg carrying a static confidence in (0, 1]: the hint
// comes from the static synthesizer rather than from observed execution, and
// conf bounds how deep the pump will prefetch for this segment (a fraction
// of the horizon, floored at MinHorizon). conf <= 0 degenerates to HintSeg.
func (c *Client) HintSegConf(f *fsim.File, off, n int64, conf float64) {
	c.hintSeg(f, off, n, clamp01(conf))
}

func (c *Client) hintSeg(f *fsim.File, off, n int64, conf float64) {
	c.stats.HintCalls++
	m := c.m
	seg := segment{file: f, off: off, n: n, conf: conf}
	if first, last, end, ok := blockRange(f, off, n, int64(m.fs.BlockSize())); ok {
		seg.firstBlock = first
		seg.firstLB = f.LogicalBlock(first)
		seg.nBlocks = last - first + 1
		c.stats.HintBlocks += seg.nBlocks
		c.stats.HintBytes += end - off
	}
	if m.cfg.IgnoreHints || c.closed {
		return
	}
	if m.cfg.MaxHintSegs > 0 && len(c.hints)-c.head >= m.cfg.MaxHintSegs {
		// Hint buffers are full (runaway speculation): drop the hint.
		c.stats.DroppedHints++
		if m.obs.Enabled() {
			m.emit("hint-dropped", "client=%d %s off=%d n=%d (queue full)", c.id, f.Name, off, n)
		}
		return
	}
	c.hints = append(c.hints, seg)
	c.watch(&seg)
	c.stale()
	if m.obs.Enabled() {
		m.emit("hint", "client=%d %s off=%d n=%d blocks=%d", c.id, f.Name, off, n, seg.nBlocks)
	}
	m.pump()
}

// Seg is one (file, offset, length) disclosure for batch hinting.
type Seg struct {
	File *fsim.File
	Off  int64
	N    int64
}

// unprotect releases the hint protection c holds on lb, if any. A block
// re-protected by a different client keeps that client's protection.
func (c *Client) unprotect(lb int64) {
	if b := c.m.cache.Get(lb); b != nil && b.HintDist != cache.NoHint && b.Owner == c.id {
		c.m.cache.SetHintFor(lb, c.id, cache.NoHint)
	}
}

// release drops the protection c holds on every block of a segment leaving
// the queue unread (cancelled, bypassed, or its client closed).
func (c *Client) release(seg *segment) {
	for lb := seg.firstLB; lb < seg.firstLB+seg.nBlocks; lb++ {
		c.unprotect(lb)
	}
}

// CancelAll cancels all of this client's outstanding hints (TIPIO_CANCEL_ALL).
// Other clients' hints are untouched. Prefetch requests already issued to the
// disks proceed; their blocks merely lose hint protection in the cache.
func (c *Client) CancelAll() {
	c.stats.CancelCalls++
	if c.m.cfg.IgnoreHints {
		return
	}
	live := c.hints[c.head:]
	for i := range live {
		c.stats.CancelledSegs++
		c.accObserve(false, 1)
		c.release(&live[i])
	}
	if c.m.obs.Enabled() {
		c.m.emit("cancel-all", "client=%d segs=%d", c.id, len(live))
	}
	c.hints = c.hints[:0]
	c.head = 0
}

// findCover returns the queue index of the first segment whose range covers
// the read [off, end) of f (end already clamped to the file), or -1.
func (c *Client) findCover(f *fsim.File, off, end int64) int {
	for i := c.head; i < len(c.hints); i++ {
		seg := &c.hints[i]
		if seg.file == f && off >= seg.off && end <= seg.dataEnd() {
			return i
		}
	}
	return -1
}

// Covered reports whether a read of [off, off+n) in f is disclosed by one of
// this client's outstanding hints. Manually-hinted applications use this to
// decide whether a read call counts as hinted.
func (c *Client) Covered(f *fsim.File, off, n int64) bool {
	if c.m.cfg.IgnoreHints {
		return false
	}
	return c.findCover(f, off, clampEnd(f, off, n)) >= 0
}

// consume matches a hinted demand read of [off, end) — n bytes as requested,
// end clamped to the file — against the client's hint queue. Segments skipped
// over on the way to the covering segment predicted reads that did not occur
// (in that order) and are bypassed — this is how erroneous speculation shows
// up in Table 4.
// The staticTail return reports that the covering segment was a static
// (conf-tagged) hint whose data this read fully exhausted: the hint stream
// discloses nothing further in the file here, so sequential readahead is not
// redundant with it. Always false for dynamic (conf 0) hints, preserving
// their behavior exactly.
func (c *Client) consume(f *fsim.File, off, n, end int64) (staticTail bool) {
	i := c.findCover(f, off, end)
	if i < 0 {
		return false
	}
	c.stale()
	for k := c.head; k < i; k++ {
		c.stats.BypassedSegs++
		c.accObserve(false, 1)
		c.release(&c.hints[k])
	}
	if c.m.obs.Enabled() {
		c.m.emit("consume", "client=%d %s off=%d n=%d bypassed=%d", c.id, f.Name, off, n, i-c.head)
	}
	c.head = i
	seg := &c.hints[i]
	if hw := end - seg.off; hw > seg.consumed {
		seg.consumed = hw
	}
	c.accObserve(true, 1)
	segEnd := seg.dataEnd()
	staticTail = seg.conf > 0 && end >= segEnd
	if seg.off+seg.consumed >= segEnd {
		c.stats.MatchedCalls++
		c.stats.MatchedBlocks += seg.nBlocks
		if bytes := segEnd - seg.off; bytes > 0 {
			c.stats.MatchedBytes += bytes
		}
		c.head++ // fully read: pop it
		c.compact()
	}
	return staticTail
}

// compact reclaims consumed queue prefix space, in place.
func (c *Client) compact() {
	if c.head > 1024 && c.head*2 > len(c.hints) {
		n := copy(c.hints, c.hints[c.head:])
		clear(c.hints[n:])
		c.hints = c.hints[:n]
		c.head = 0
	}
}

// clamp01 clamps a confidence or probability to [0, 1].
func clamp01(x float64) float64 { return max(0, min(1, x)) }

// priorWeight is how many pseudo-observations a static prior contributes to
// the windowed accuracy estimate (an eighth of the window: strong enough to
// anchor the start, weak enough for real evidence to dominate).
const priorWeight = accWindow / 8

// accWindow is the sliding-window size for the accuracy estimate.
const accWindow = 256

func (c *Client) accObserve(good bool, weight float64) {
	if good {
		c.accGood += weight
	} else {
		c.accBad += weight
	}
	if c.accGood+c.accBad > accWindow {
		c.accGood /= 2
		c.accBad /= 2
	}
	c.m.shares.valid = false
}

// SetPrior installs a static accuracy prior for this client's hint stream
// (clamped to [0, 1]): the confidence the static hint synthesizer assigned
// to its disclosures. It acts as priorWeight pseudo-observations in the
// windowed accuracy estimate. Clients without a prior behave exactly as
// before (optimistic 1.0 until dynamic evidence arrives).
func (c *Client) SetPrior(p float64) {
	c.prior = clamp01(p)
	c.priorWt = priorWeight
	c.stale()
	c.m.shares.valid = false
}

// Accuracy returns TIP's windowed estimate of the fraction of this client's
// recent hints that proved correct (1.0 before any evidence). TIP discounts
// the benefit of prefetching by it and the adaptive speculation throttle
// consults it. A static prior, when set, contributes priorWt
// pseudo-observations.
func (c *Client) Accuracy() float64 {
	if c.priorWt > 0 {
		return (c.accGood + c.prior*c.priorWt) / (c.accGood + c.accBad + c.priorWt)
	}
	if c.accGood+c.accBad == 0 {
		return 1.0
	}
	return c.accGood / (c.accGood + c.accBad)
}

// effHorizon returns the client's accuracy-scaled prefetch horizon.
func (c *Client) effHorizon() int {
	return max(int(float64(c.m.cfg.Horizon)*c.Accuracy()), c.m.cfg.MinHorizon)
}

// weight is the client's partition weight: accuracy floored so an unlucky
// client keeps a foothold from which its estimate can recover.
func (c *Client) weight() float64 { return max(c.Accuracy(), 0.05) }

// MeanAccuracy returns the mean windowed hint accuracy over open clients
// (1.0 with no clients — no evidence of error).
func (m *Manager) MeanAccuracy() float64 {
	open, sum := 0, 0.0
	for _, c := range m.clients {
		if !c.closed {
			open++
			sum += c.Accuracy()
		}
	}
	if open == 0 {
		return 1
	}
	return sum / float64(open)
}
