// Package disk models the storage substrate of the SpecHint testbed: an
// array of disks (the paper used four HP C2247s, 15 ms average access)
// behind a striping pseudodevice with a 64 KB striping unit.
//
// Each disk services one request at a time, non-preemptively, from a
// two-priority queue: demand reads (the application is stalled on them) are
// served before prefetch reads, but an in-service prefetch is never aborted —
// this is what lets erroneous prefetches delay demand requests, the effect
// behind Gnuld's single-disk degradation in the paper.
//
// The model includes the disks' track-buffer read-ahead (physically
// sequential accesses bypass positioning) and the paper's Figure 6 apparatus:
// a completion-notification delay factor used to simulate a widening gap
// between processor and disk speeds, combined with a limit on outstanding
// prefetch requests per disk.
package disk

import (
	"errors"
	"fmt"

	"spechint/internal/obs"
	"spechint/internal/sim"
)

// ErrIO is the transient read error: the request was serviced but returned
// no data. The caller may retry.
var ErrIO = errors.New("disk: transient read error")

// ErrDead is the permanent failure: the request's disk has died. Retrying on
// the same disk cannot succeed.
var ErrDead = errors.New("disk: disk failed")

// Injector decides, per request entering service, whether a fault is
// injected. fault.Plan implements it; nil means a perfect array.
type Injector interface {
	// DiskDead reports whether disk has permanently failed as of now.
	DiskDead(disk int, now sim.Time) bool
	// Outcome rules on one request: spikeFactor multiplies the media
	// service time (1 = none) and fail completes the request with ErrIO.
	Outcome(disk int, phys int64, now sim.Time) (spikeFactor int, fail bool)
}

// Priority classifies a request for queueing.
type Priority int

const (
	// Demand requests block the application; they queue ahead of prefetches.
	Demand Priority = iota
	// Prefetch requests are speculative; they are served only when no
	// demand request is waiting.
	Prefetch
)

func (p Priority) String() string {
	if p == Demand {
		return "demand"
	}
	return "prefetch"
}

// Config describes the array geometry and timing. All times are in CPU
// cycles so that a single virtual clock drives the whole simulation.
type Config struct {
	NumDisks   int // disks in the array
	BlockSize  int // bytes per file-system block
	StripeUnit int // bytes per striping unit (must be a multiple of BlockSize)

	PositionCycles sim.Time // average positioning (seek+rotation) cost per random access
	TransferCycles sim.Time // media transfer cost per block
	TrackBufCycles sim.Time // transfer cost per block when served from the track buffer

	// TrackBufBlocks is how many physically consecutive blocks past the last
	// access the drive's internal read-ahead covers. Zero disables the
	// track-buffer model.
	TrackBufBlocks int

	// DelayFactor simulates a widening processor/disk speed gap (Figure 6):
	// completion notification is delayed to DelayFactor times the service
	// time. 1 means no delay. The benchmark harness divides measured elapsed
	// times by this factor, as the paper did.
	DelayFactor int

	// MaxPrefetchPerDisk bounds outstanding (queued + in-service) prefetch
	// requests per disk; Submit rejects prefetches over the bound. Zero means
	// unlimited. The paper set this to 1 for the Figure 6 experiments.
	MaxPrefetchPerDisk int
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.NumDisks <= 0:
		return fmt.Errorf("disk: NumDisks = %d, want > 0", c.NumDisks)
	case c.BlockSize <= 0:
		return fmt.Errorf("disk: BlockSize = %d, want > 0", c.BlockSize)
	case c.StripeUnit <= 0 || c.StripeUnit%c.BlockSize != 0:
		return fmt.Errorf("disk: StripeUnit = %d, want positive multiple of BlockSize %d", c.StripeUnit, c.BlockSize)
	case c.DelayFactor < 1:
		return fmt.Errorf("disk: DelayFactor = %d, want >= 1", c.DelayFactor)
	case c.PositionCycles < 0 || c.TransferCycles <= 0 || c.TrackBufCycles < 0:
		return fmt.Errorf("disk: negative or zero timing parameters")
	}
	return nil
}

// Request is one block read submitted to the array. Done is invoked exactly
// once when the host is notified of completion; err is nil on success, ErrIO
// for a transient fault, ErrDead when the disk has permanently failed. The
// array does not touch a request after calling its Done, so the submitter may
// reuse it from inside Done.
type Request struct {
	Disk      int             // target disk, from the striping map
	PhysBlock int64           // physical block number on that disk
	Pri       Priority        // demand or prefetch
	Done      func(err error) // completion notification with result status

	next    *Request // intrusive FIFO link
	arrival sim.Time // when Submit queued it
}

// Stats aggregates array activity for the evaluation tables.
type Stats struct {
	DemandReqs    int64
	PrefetchReqs  int64
	RejectedReqs  int64 // prefetches rejected by MaxPrefetchPerDisk
	TrackBufHits  int64
	BusyCycles    sim.Time // summed over disks
	DemandWait    sim.Time // queueing delay experienced by demand requests
	DemandService sim.Time // service time of demand requests

	// Fault-injection outcomes (zero on a perfect array).
	FaultedReqs int64 // requests completed with ErrIO
	SpikedReqs  int64 // requests whose service time was spiked
	DeadReqs    int64 // requests completed with ErrDead
	DeadDisks   int   // disks that have permanently failed
}

// Array is the striped disk array.
type Array struct {
	clk   *sim.Queue
	cfg   Config
	unit  int64 // file-system blocks per striping unit
	disks []diskState
	stats Stats
	inj   Injector   // nil = perfect hardware
	obs   *obs.Trace // nil = tracing off; all methods are nil-safe

	// OnIdle, if non-nil, is invoked whenever a disk finishes a request and
	// has no further queued work. TIP uses it to re-try prefetches rejected
	// by the outstanding-prefetch bound.
	OnIdle func(disk int)
}

type diskState struct {
	dead        bool
	demandHead  *Request
	demandTail  *Request
	prefHead    *Request
	prefTail    *Request
	prefCount   int   // queued + in-service prefetches
	nextSeqPhys int64 // first physical block covered by the track buffer
	seqLimit    int64 // one past the last block covered by the track buffer

	// The request in service (nil when idle), whether it fails, and the
	// completion event that ends its service: bound once, because a disk has
	// at most one request in service.
	cur     *Request
	curFail bool
	finish  func()
}

// New constructs an array on the given clock.
func New(clk *sim.Queue, cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Array{clk: clk, cfg: cfg, unit: int64(cfg.StripeUnit / cfg.BlockSize),
		disks: make([]diskState, cfg.NumDisks)}
	for i := range a.disks {
		a.disks[i].nextSeqPhys = -1
		a.disks[i].finish = func() { a.finish(i) }
	}
	return a, nil
}

// Config returns the array configuration.
func (a *Array) Config() Config { return a.cfg }

// SetObs installs a cross-layer trace; disk service intervals become spans
// on per-disk lanes. Install before submitting requests.
func (a *Array) SetObs(tr *obs.Trace) { a.obs = tr }

// SetInjector installs a fault injector (nil restores perfect hardware).
// Install before submitting requests; injection decisions are made at
// service time.
func (a *Array) SetInjector(inj Injector) { a.inj = inj }

// Dead reports whether disk i has permanently failed.
func (a *Array) Dead(i int) bool {
	return i >= 0 && i < len(a.disks) && a.disks[i].dead
}

// DeadCount returns how many disks have permanently failed so far.
func (a *Array) DeadCount() int { return a.stats.DeadDisks }

// deadNotifyCycles is the latency of an ErrDead completion: the driver's
// command timeout, modeled as one positioning time.
func (a *Array) deadNotifyCycles() sim.Time {
	if a.cfg.PositionCycles > 0 {
		return a.cfg.PositionCycles
	}
	return a.cfg.TransferCycles
}

// checkDeath marks disk i dead if the injector says it has failed by now,
// draining its queues: every queued request completes with ErrDead after the
// timeout latency. The in-service request, if any, finishes normally — its
// data transfer had already begun.
func (a *Array) checkDeath(i int) {
	d := &a.disks[i]
	if d.dead || a.inj == nil || !a.inj.DiskDead(i, a.clk.Now()) {
		return
	}
	d.dead = true
	a.stats.DeadDisks++
	for {
		r := a.pop(d)
		if r == nil {
			break
		}
		if r.Pri == Prefetch {
			d.prefCount--
		}
		a.failDead(r)
	}
}

// failDead schedules r's ErrDead completion.
func (a *Array) failDead(r *Request) {
	a.stats.DeadReqs++
	if a.obs.Enabled() {
		a.obs.Emitf(a.clk.Now(), fmt.Sprintf("disk%d", r.Disk), "disk", "dead",
			"%s phys=%d completed ErrDead", r.Pri, r.PhysBlock)
	}
	if n, ok := a.inj.(interface{ NoteDeadHit() }); ok {
		n.NoteDeadHit()
	}
	a.clk.After(a.deadNotifyCycles(), func() {
		if r.Done != nil {
			r.Done(ErrDead)
		}
	})
}

// Stats returns a copy of the accumulated statistics.
func (a *Array) Stats() Stats { return a.stats }

// Map implements the striping pseudodevice: it maps a logical block number
// (in the file system's global block space) to a (disk, physical block) pair,
// striping round-robin in StripeUnit-sized runs.
func (a *Array) Map(logical int64) (disk int, phys int64) {
	stripe := logical / a.unit
	within := logical % a.unit
	disk = int(stripe % int64(a.cfg.NumDisks))
	row := stripe / int64(a.cfg.NumDisks)
	return disk, row*a.unit + within
}

// DiskOf is the disk half of Map, for callers that only route by disk.
func (a *Array) DiskOf(logical int64) int {
	return int(logical / a.unit % int64(a.cfg.NumDisks))
}

// Submit enqueues a request. It returns false if the request is a prefetch
// and the per-disk outstanding-prefetch bound is reached; the caller may
// retry later (see OnIdle).
func (a *Array) Submit(r *Request) bool {
	if r.Disk < 0 || r.Disk >= len(a.disks) {
		panic(fmt.Sprintf("disk: request for disk %d of %d", r.Disk, len(a.disks)))
	}
	a.checkDeath(r.Disk)
	d := &a.disks[r.Disk]
	if d.dead {
		// The disk is gone: the request completes with ErrDead after the
		// driver timeout, never entering a queue.
		a.failDead(r)
		return true
	}
	if r.Pri == Prefetch {
		if a.cfg.MaxPrefetchPerDisk > 0 && d.prefCount >= a.cfg.MaxPrefetchPerDisk {
			a.stats.RejectedReqs++
			return false
		}
		a.stats.PrefetchReqs++
		d.prefCount++
		if d.prefTail == nil {
			d.prefHead, d.prefTail = r, r
		} else {
			d.prefTail.next = r
			d.prefTail = r
		}
	} else {
		a.stats.DemandReqs++
		if d.demandTail == nil {
			d.demandHead, d.demandTail = r, r
		} else {
			d.demandTail.next = r
			d.demandTail = r
		}
	}
	r.arrival = a.clk.Now()
	a.startIfIdle(r.Disk)
	return true
}

func (a *Array) startIfIdle(disk int) {
	d := &a.disks[disk]
	if d.cur != nil {
		return
	}
	a.checkDeath(disk)
	if d.dead {
		return // queues were drained with ErrDead
	}
	r := a.pop(d)
	if r == nil {
		return
	}
	d.cur = r

	service, trackHit := a.serviceTime(d, r)
	spike, fail := 1, false
	if a.inj != nil {
		spike, fail = a.inj.Outcome(disk, r.PhysBlock, a.clk.Now())
		if spike > 1 {
			service *= sim.Time(spike)
			a.stats.SpikedReqs++
		}
		if fail {
			a.stats.FaultedReqs++
		}
	}
	if trackHit && !fail {
		a.stats.TrackBufHits++
	}
	a.stats.BusyCycles += service
	if r.Pri == Demand {
		a.stats.DemandWait += a.clk.Now() - r.arrival
		a.stats.DemandService += service
	}

	if fail {
		// A failed read streams no data: the track-buffer window is lost.
		d.nextSeqPhys, d.seqLimit = -1, 0
	} else {
		// Update the track-buffer window: the drive reads ahead physically.
		d.nextSeqPhys = r.PhysBlock + 1
		d.seqLimit = r.PhysBlock + 1 + int64(a.cfg.TrackBufBlocks)
	}

	if a.obs.Enabled() {
		detail := fmt.Sprintf("phys=%d", r.PhysBlock)
		if trackHit && !fail {
			detail += " track-buffer"
		}
		if spike > 1 {
			detail += fmt.Sprintf(" spike=%dx", spike)
		}
		if fail {
			detail += " EIO"
		}
		a.obs.Span(a.clk.Now(), service, fmt.Sprintf("disk%d", disk), "disk", r.Pri.String(), detail)
	}

	d.curFail = fail
	a.clk.After(service*sim.Time(a.cfg.DelayFactor), d.finish)
}

// finish ends the service of disk's current request: the host is notified,
// then the disk takes its next request.
func (a *Array) finish(disk int) {
	d := &a.disks[disk]
	r := d.cur
	d.cur = nil
	if r.Pri == Prefetch {
		d.prefCount--
	}
	if r.Done != nil {
		var err error
		if d.curFail {
			err = ErrIO
		}
		r.Done(err)
	}
	a.startIfIdle(disk)
	if a.OnIdle != nil && d.cur == nil {
		a.OnIdle(disk)
	}
}

// serviceTime computes the media service time for r on d, consulting the
// track buffer; it is pure (the queue scheduler also calls it to estimate
// costs). A request within the read-ahead window avoids positioning but
// still pays to stream past any skipped blocks, so a near-sequential skip
// is cheaper than a seek yet dearer than a contiguous read.
func (a *Array) serviceTime(d *diskState, r *Request) (sim.Time, bool) {
	if a.cfg.TrackBufBlocks > 0 && d.nextSeqPhys >= 0 &&
		r.PhysBlock >= d.nextSeqPhys-1 && r.PhysBlock < d.seqLimit {
		dist := r.PhysBlock - (d.nextSeqPhys - 1) // blocks streamed through
		if dist < 1 {
			dist = 1 // re-read of the buffered block
		}
		return a.cfg.TrackBufCycles * sim.Time(dist), true
	}
	return a.cfg.PositionCycles + a.cfg.TransferCycles, false
}

// pop removes the next request to serve: demand requests first (FIFO), then
// the cheapest queued prefetch. Real drivers sort their queues (C-SCAN /
// shortest positioning time first); without this, prefetches interleaved
// with a sequential demand stream destroy the drive's track-buffer locality.
func (a *Array) pop(d *diskState) *Request {
	if d.demandHead != nil {
		r := d.demandHead
		d.demandHead = r.next
		if d.demandHead == nil {
			d.demandTail = nil
		}
		r.next = nil
		return r
	}
	if d.prefHead == nil {
		return nil
	}
	// Select the prefetch with the lowest estimated service time from the
	// current head position; ties broken by ascending physical distance.
	var best, bestPrev *Request
	var prev *Request
	bestCost := sim.Time(1<<62 - 1)
	var bestDist int64 = 1<<62 - 1
	for r := d.prefHead; r != nil; prev, r = r, r.next {
		cost, _ := a.serviceTime(d, r)
		dist := r.PhysBlock - d.nextSeqPhys
		if dist < 0 {
			dist = -dist
		}
		if cost < bestCost || (cost == bestCost && dist < bestDist) {
			best, bestPrev, bestCost, bestDist = r, prev, cost, dist
		}
	}
	if bestPrev == nil {
		d.prefHead = best.next
	} else {
		bestPrev.next = best.next
	}
	if d.prefTail == best {
		d.prefTail = bestPrev
	}
	best.next = nil
	return best
}

// Promote moves a queued prefetch request to the demand queue: a demand
// read is waiting on its block, so it inherits demand priority. If the
// request is already in service or already completed, Promote is a no-op.
// The request keeps its prefetch identity for depth accounting.
func (a *Array) Promote(r *Request) {
	if r.Disk < 0 || r.Disk >= len(a.disks) {
		return
	}
	d := &a.disks[r.Disk]
	var prev *Request
	for q := d.prefHead; q != nil; prev, q = q, q.next {
		if q != r {
			continue
		}
		if prev == nil {
			d.prefHead = r.next
		} else {
			prev.next = r.next
		}
		if d.prefTail == r {
			d.prefTail = prev
		}
		r.next = nil
		if d.demandTail == nil {
			d.demandHead, d.demandTail = r, r
		} else {
			d.demandTail.next = r
			d.demandTail = r
		}
		return
	}
}

// QueueDepth returns the number of requests queued (not in service) at disk i.
func (a *Array) QueueDepth(i int) int {
	d := &a.disks[i]
	n := 0
	for r := d.demandHead; r != nil; r = r.next {
		n++
	}
	for r := d.prefHead; r != nil; r = r.next {
		n++
	}
	return n
}

// Busy reports whether disk i is currently servicing a request.
func (a *Array) Busy(i int) bool { return a.disks[i].cur != nil }

// Outstanding returns the requests disk i holds, queued or in service. It is
// the definition of every diskN_queue_depth gauge: a disk serving one request
// with none waiting reports 1, an idle one 0.
func (a *Array) Outstanding(i int) int {
	n := a.QueueDepth(i)
	if a.disks[i].cur != nil {
		n++
	}
	return n
}
