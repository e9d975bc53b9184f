package cluster

// This file is the client-side protocol: the message types that cross the
// client <-> shard boundary and the routing that splits a file operation
// into per-shard messages. Everything a client asks of a shard travels as
// one of three requests — session open (hint disclosure), read, session
// close — each delivered after netCycles of one-way network latency;
// replies pay the same latency back. Nothing else crosses the boundary:
// shards never call into clients and clients never touch a shard's cache,
// which is exactly the seam that makes sharding, batching and admission
// control expressible.

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

// splitRange routes the byte range [off, off+n) of file (size fileSize,
// blocks of blockSize grouped into placement groups of groupBlocks) across
// the ring: consecutive blocks with one owner merge into a single part.
// Parts come back in offset order — the order the client will consume them —
// so per-shard hint disclosures are already in consumption order.
func splitRange(r *Ring, groupBlocks, blockSize int64, file int, off, n, fileSize int64) []ReadPart {
	end := off + n
	if end > fileSize {
		end = fileSize
	}
	if off < 0 || off >= end {
		return nil
	}
	first := off / blockSize
	last := (end - 1) / blockSize

	var parts []ReadPart
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
