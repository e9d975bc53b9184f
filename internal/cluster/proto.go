package cluster

// This file is the client-side protocol: the message types that cross the
// client <-> shard boundary, the one struct that carries each of them, and the
// routing that splits a file operation into per-shard messages. Everything a client asks of a shard travels as
// one of three requests — session open (hint disclosure), read, session
// close — each delivered after netCycles of one-way network latency;
// replies pay the same latency back. Nothing else crosses the boundary:
// shards never call into clients and clients never touch a shard's cache,
// which is exactly the seam that makes sharding, batching and admission
// control expressible.

import "spechint/internal/sim"

// Status is a shard's reply to one read part. Anything but StatusOK is a
// failure from the client's point of view; the client's retry policy and
// per-shard breaker decide what happens next.
type Status uint8

const (
	// StatusOK: the part was served; the data is good.
	StatusOK Status = iota
	// StatusShed: admission control rejected the part before service — the
	// shard's queue already owes more latency than its budget. Retry after
	// backoff.
	StatusShed
	// StatusEIO: the part was served but the underlying read failed.
	StatusEIO
	// StatusDead: the shard is dead — the part was rejected at arrival,
	// killed in its queue, or its shard died mid-service. The ring has
	// re-routed the shard's keys; a retry reaches the new owner.
	StatusDead
)

// String renders the status for diagnostics.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusShed:
		return "SHED"
	case StatusEIO:
		return "EIO"
	case StatusDead:
		return "DEAD"
	}
	return "Status(?)"
}

// SessionKey names one client session; it scopes a shard's per-session TIP
// hint stream so one client's disclosures are never bypassed against
// another's.
type SessionKey struct {
	Client  int
	Session int
}

// HintSeg is one disclosed future read in a Hint request: [Off, Off+N) of
// corpus file File. Offsets are in the file's own byte space regardless of
// which shard owns which block.
type HintSeg struct {
	File int
	Off  int64
	N    int64
}

// ReadPart is one shard's slice of a client read: the client routes a read
// of [Off, Off+N) through the ring and issues one ReadPart per contiguous
// run of same-owner placement groups, in offset order.
type ReadPart struct {
	Shard int
	Off   int64
	N     int64
}

// msgKind is the request a msg carries.
type msgKind uint8

const (
	msgRead  msgKind = iota // one ReadPart of a client read
	msgHints                // a session's disclosure to one shard
	msgClose                // a session's close
)

// msg is one client request on its way through the cluster. A read part
// stays one msg from send to reply: the shard queues it, hands its done to
// TIP and sends it back as the reply, and a part to retry waits out its
// backoff in one too. Messages come from the cluster's free list (newMsg);
// their callbacks are bound when a msg is first allocated, so sending one
// allocates nothing.
type msg struct {
	c      *Cluster
	kind   msgKind
	cr     *clientRun
	target *shard // the destination; nil for a part waiting out a retry backoff
	key    SessionKey
	file   int
	part   ReadPart  // msgRead: the range and its owner
	try    int       // msgRead: 0 for the first send, the retry number after
	segs   []HintSeg // msgHints

	// The shard's state for a read part in service.
	start  sim.Time // dispatch into TIP
	hinted bool     // the part arrived covered by a hint
	status Status   // the reply

	deliverFn func()          // deliver, after the network latency
	replyFn   func()          // reply reaches the client, after the network latency
	resendFn  func()          // resend, after a retry backoff
	serviceFn func()          // a brownout-delayed dispatch starts service
	doneFn    func(err error) // TIP's completion of the part
}

// newMsg returns a cleared msg of the given kind for target, from the free
// list if it can.
func (c *Cluster) newMsg(kind msgKind, cr *clientRun, target *shard) *msg {
	var m *msg
	if n := len(c.freeMsgs); n > 0 {
		m = c.freeMsgs[n-1]
		c.freeMsgs = c.freeMsgs[:n-1]
	} else {
		m = &msg{c: c}
		m.deliverFn = m.deliver
		m.replyFn = m.replied
		m.resendFn = m.resend
		m.serviceFn = m.service
		m.doneFn = m.done
	}
	m.kind, m.cr, m.target = kind, cr, target
	return m
}

// release clears m and puts it on the free list. The caller guarantees
// nothing reaches m any more: a hint or close has been delivered, a read
// part's reply has been handled, a retry's backoff has run. Under the
// test-only poison a released msg is not reused, and its nil target and
// shard -1 make a late delivery or reply panic.
func (m *msg) release() {
	c := m.c
	*m = msg{c: c, segs: m.segs[:0], deliverFn: m.deliverFn, replyFn: m.replyFn,
		resendFn: m.resendFn, serviceFn: m.serviceFn, doneFn: m.doneFn}
	if c.poison {
		m.part.Shard = -1
		return
	}
	c.freeMsgs = append(c.freeMsgs, m)
}

// send puts m on the network to its target.
func (m *msg) send() { m.c.clk.After(netCycles, m.deliverFn) }

// deliver is m's arrival at its shard.
func (m *msg) deliver() {
	switch m.kind {
	case msgRead:
		m.target.serveRead(m)
	case msgHints:
		m.target.serveHints(m.key, m.segs)
		m.release()
	case msgClose:
		m.target.closeSession(m.key)
		m.release()
	}
}

// service starts a read part's service at its shard after a brownout delay.
func (m *msg) service() { m.target.startService(m) }

// done is TIP's completion of a read part.
func (m *msg) done(err error) { m.target.endService(m, err) }

// replied is a read part's reply reaching its client.
func (m *msg) replied() { m.cr.partReply(m) }

// resend sends a failed part's range again once its backoff has run.
func (m *msg) resend() {
	cr, p, try := m.cr, m.part, m.try
	m.release()
	cr.sendPart(p.Off, p.N, try)
}

// splitRange routes the byte range [off, off+n) of file (size fileSize,
// blocks of blockSize grouped into placement groups of groupBlocks) across
// the ring: consecutive blocks with one owner merge into a single part.
// Parts come back in offset order — the order the client will consume them —
// so per-shard hint disclosures are already in consumption order. They are
// appended to dst[:0].
func splitRange(dst []ReadPart, r *Ring, groupBlocks, blockSize int64, file int, off, n, fileSize int64) []ReadPart {
	parts := dst[:0]
	end := off + n
	if end > fileSize {
		end = fileSize
	}
	if off < 0 || off >= end {
		return parts
	}
	first := off / blockSize
	last := (end - 1) / blockSize

	runStart := first
	runOwner := r.owner(file, first/groupBlocks)
	flush := func(b int64) { // run covers [runStart, b)
		pOff := runStart * blockSize
		if pOff < off {
			pOff = off
		}
		pEnd := b * blockSize
		if pEnd > end {
			pEnd = end
		}
		parts = append(parts, ReadPart{Shard: runOwner, Off: pOff, N: pEnd - pOff})
	}
	for b := first + 1; b <= last; b++ {
		if owner := r.owner(file, b/groupBlocks); owner != runOwner {
			flush(b)
			runStart, runOwner = b, owner
		}
	}
	flush(last + 1)
	return parts
}
