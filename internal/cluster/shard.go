package cluster

// This file is the server side of the message boundary: one Shard is a
// self-contained TIP node — its own disk array, cache partition and TIP
// manager on the cluster's shared virtual clock — that speaks only the
// proto.go request types. Hints do not apply immediately: they queue in a
// batched, coalescing ingestion queue and flush either when the batch window
// expires or when the queue hits its size cap, modelling the server-side
// amortization a real RPC hint path needs. Every cycle of a shard's life is
// charged to exactly one stall bucket, so the per-shard buckets sum to the
// run's elapsed time by construction.
//
// The shard's front door is cost-based admission control (Config.Admission):
// read parts enter a bounded two-priority queue and are dispatched into TIP
// at most Config.MaxInflight at a time. A part is shed at arrival when the
// queue's predicted wait — depth x recent mean service time / service width —
// exceeds latencyBudget (or when the queue hits its hard cap), so
// under overload the shard keeps serving at capacity with bounded latency
// instead of queueing without bound. Every arriving part is ruled exactly
// once: Admitted (dispatched into service), Shed (admission rejection), or
// Failed (the shard was dead at arrival, or died while the part waited) —
// Admitted + Shed + Failed == Offered is the conservation invariant tests
// and CI hold the shard to, mirroring the stall-bucket identity.

import (
	"fmt"

	"spechint/internal/disk"
	"spechint/internal/fsim"
	"spechint/internal/obs"
	"spechint/internal/sim"
	"spechint/internal/tip"
)

// Buckets is a shard's exhaustive time accounting: every cycle between the
// cluster's start and its freeze point lands in exactly one bucket.
//   - HintedService: >= 1 read part outstanding and all of them arrived with
//     hint coverage.
//   - UnhintedService: >= 1 read part outstanding, at least one uncovered.
//   - Idle: no read part outstanding.
type Buckets struct {
	HintedService   int64 `json:"hinted_cycles"`
	UnhintedService int64 `json:"unhinted_cycles"`
	Idle            int64 `json:"idle_cycles"`
}

// total returns the sum of all buckets — by construction the cluster's
// elapsed cycles once the shard is frozen.
func (b Buckets) total() int64 { return b.HintedService + b.UnhintedService + b.Idle }

// ShardStats counts a shard's protocol-level activity (the TIP, cache and
// disk layers below keep their own counters).
type ShardStats struct {
	// Admission accounting. Every offered read part is ruled exactly once:
	// Offered == Admitted + Shed + Failed (checked by Result.Check).
	Offered  int64 // read parts that arrived at the shard (retries included)
	Admitted int64 // parts dispatched into service
	Shed     int64 // parts rejected by admission control
	Failed   int64 // parts refused dead-at-arrival or killed in queue on death
	Retried  int64 // subset of Offered that were client retries

	ReadParts    int64 // read requests served (== Admitted)
	HintedParts  int64 // subset that arrived with hint coverage
	ReadErrors   int64 // read parts that resolved with an error
	HintMsgs     int64 // hint messages received
	HintSegsIn   int64 // segments across all hint messages
	AppliedSegs  int64 // segments applied to TIP after coalescing
	StaleSegs    int64 // segments whose session closed before the flush
	Batches      int64 // ingestion queue flushes
	SessionsOpen int64 // sessions ever opened
	PeakSessions int   // max concurrently open sessions
	PeakIngest   int   // max ingestion queue depth (<= hintBatchMax)
	PeakQueue    int   // max admission queue depth (<= queueCap when admission is on)
}

// pendingHint is one queued, not-yet-applied hint segment.
type pendingHint struct {
	key SessionKey
	seg HintSeg
}

// partQueue is a FIFO of read parts: the shard's admission queues. It pops
// by index and reuses its array, so a queue that empties, or keeps draining
// at the rate it fills, allocates nothing.
type partQueue struct {
	q    []*msg
	head int
}

func (pq *partQueue) len() int { return len(pq.q) - pq.head }

func (pq *partQueue) push(m *msg) { pq.q = append(pq.q, m) }

func (pq *partQueue) pop() *msg {
	m := pq.q[pq.head]
	pq.q[pq.head] = nil
	pq.head++
	if pq.head == len(pq.q) {
		pq.q, pq.head = pq.q[:0], 0
	} else if pq.head >= 32 && 2*pq.head >= len(pq.q) {
		n := copy(pq.q, pq.q[pq.head:])
		clear(pq.q[n:])
		pq.q, pq.head = pq.q[:n], 0
	}
	return m
}

// initialSvcEst seeds the mean-service estimate before the first completion
// (~4 ms at testbed scale, a mid-range disk read), so admission has a sane
// cost model from the first request.
const initialSvcEst = 1_000_000

// shard is one server node.
type shard struct {
	id  int
	clk *sim.Queue
	cfg *Config

	arr   *disk.Array
	tm    *tip.Manager
	files []*fsim.File // full corpus replica; the ring decides which blocks this shard actually serves

	sess   map[SessionKey]*tip.Client
	served map[SessionKey]bool // sessions with >= 1 part dispatched here (priority class)

	ingest  []pendingHint
	flushEv sim.Handle
	flushFn func() // the batch-window timer's event, bound once

	// Admission/service state (active when cfg.MaxInflight > 0).
	hotQ     partQueue // parts of sessions already in flight here
	coldQ    partQueue // first parts of newly opened sessions
	inflight int       // parts dispatched into TIP, not yet completed
	svcEst   int64     // EWMA of per-part service cycles (dispatch -> done)
	dead     bool      // shard killed by the fault plan

	// Interval accounting: the bucket charged for [lastAt, now) is decided by
	// the demand state that held over that interval, updated at every
	// transition. frozen stops the clock at the cluster's end time.
	lastAt      sim.Time
	outstanding int // read parts in service
	outHinted   int // subset that arrived covered
	frozen      bool

	buckets Buckets
	stats   ShardStats
}

// newShard builds shard id on the cluster's shared clock. Every shard holds a
// replica of the corpus name space backed by one shared data buffer (fsim
// files reference, not copy, their data), so per-shard memory stays flat as
// the corpus grows.
func newShard(id int, clk *sim.Queue, cfg *Config, corpus []byte) (*shard, error) {
	arr, err := disk.New(clk, cfg.Disk)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d disk: %w", id, err)
	}
	fs := fsim.New(int(cfg.Clients.BlockSize))
	tm, err := tip.New(clk, arr, fs, cfg.TIP)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d tip: %w", id, err)
	}
	s := &shard{
		id: id, clk: clk, cfg: cfg,
		arr: arr, tm: tm,
		files:  make([]*fsim.File, cfg.Clients.Files),
		sess:   make(map[SessionKey]*tip.Client),
		served: make(map[SessionKey]bool),
	}
	s.flushFn = func() {
		s.flushEv = sim.Handle{}
		s.flush()
	}
	for i := range s.files {
		f, err := fs.Create(fmt.Sprintf("f%04d", i), corpus)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d corpus: %w", id, err)
		}
		s.files[i] = f
	}
	if cfg.Obs != nil {
		sub := cfg.Obs.Sub(fmt.Sprintf("s%d:", id))
		s.installObs(sub)
	}
	return s, nil
}

// installObs wires the shard's layers onto a prefixed view of the cluster
// trace: TIP/cache/disk lanes become "sN:tip", "sN:cache", "sN:diskK", and
// the shard contributes queue-depth, session and overload gauges under the
// same prefix.
func (s *shard) installObs(sub *obs.Trace) {
	s.tm.SetObs(sub)
	s.arr.SetObs(sub)
	sub.AddGauge("ingest_queue_depth", func() float64 { return float64(len(s.ingest)) })
	sub.AddGauge("active_sessions", func() float64 { return float64(len(s.sess)) })
	sub.AddGauge("admit_queue_depth", func() float64 { return float64(s.hotQ.len() + s.coldQ.len()) })
	sub.AddGauge("shed_total", func() float64 { return float64(s.stats.Shed) })
	sub.AddGauge("service_est_cycles", func() float64 { return float64(s.svcEst) })
	for i := 0; i < s.cfg.Disk.NumDisks; i++ {
		i := i
		sub.AddGauge(fmt.Sprintf("disk%d_queue_depth", i), func() float64 { return float64(s.arr.Outstanding(i)) })
	}
}

// account charges [lastAt, now) to the bucket matching the interval's demand
// state. Call it BEFORE every state transition, with the transition time.
func (s *shard) account(now sim.Time) {
	if s.frozen {
		return
	}
	delta := int64(now - s.lastAt)
	s.lastAt = now
	if delta <= 0 {
		return
	}
	switch {
	case s.outstanding > 0 && s.outHinted == s.outstanding:
		s.buckets.HintedService += delta
	case s.outstanding > 0:
		s.buckets.UnhintedService += delta
	default:
		s.buckets.Idle += delta
	}
}

// freeze closes the books at the cluster's end time: the final interval is
// charged and the buckets stop moving, so their total equals elapsed exactly.
func (s *shard) freeze(at sim.Time) {
	s.account(at)
	s.frozen = true
}

// session returns the per-session TIP client, opening the hint stream on
// first touch. Per-session clients are the isolation unit: TIP's bypass
// accounting assumes one hint stream per consumer, so two sessions sharing a
// client would penalize each other's disclosures.
func (s *shard) session(key SessionKey) *tip.Client {
	cli := s.sess[key]
	if cli == nil {
		cli = s.tm.NewClient()
		s.sess[key] = cli
		s.stats.SessionsOpen++
		if n := len(s.sess); n > s.stats.PeakSessions {
			s.stats.PeakSessions = n
		}
	}
	return cli
}

// brownFactor returns the fault plan's current service-stretch factor for
// this shard (1 = healthy).
func (s *shard) brownFactor() int {
	if s.cfg.Fault == nil {
		return 1
	}
	return s.cfg.Fault.ShardBrownFactor(s.id, s.clk.Now())
}

// svcEstimate is the recent mean per-part service time, falling back to the
// initial seed before any completion has been observed.
func (s *shard) svcEstimate() int64 {
	if s.svcEst > 0 {
		return s.svcEst
	}
	return initialSvcEst
}

// observeService folds one completed part's service time into the EWMA the
// admission policy prices queue depth with (gain 1/8: jittery enough to track
// brownouts, smooth enough not to flap on one cache hit).
func (s *shard) observeService(sample int64) {
	if sample < 1 {
		sample = 1
	}
	if s.svcEst == 0 {
		s.svcEst = sample
		return
	}
	s.svcEst += (sample - s.svcEst) / 8
}

// shouldShed is the cost-based admission policy: reject when the queue is at
// its hard cap, or when the predicted wait for a new arrival — every queued
// and in-flight part ahead of it, priced at the recent mean service time and
// divided across the service width — exceeds the latency budget. A brownout
// stretches dispatch, not service, so the predicate prices the current
// stretch factor explicitly: a browned-out shard starts shedding as soon as
// its queue owes more than the budget at its degraded rate.
func (s *shard) shouldShed() bool {
	depth := s.hotQ.len() + s.coldQ.len()
	if depth >= queueCap {
		return true
	}
	width := s.cfg.MaxInflight
	if width < 1 {
		width = 1
	}
	est := s.svcEstimate() * int64(s.brownFactor())
	wait := int64(depth+s.inflight) * est / int64(width)
	return wait > latencyBudget
}

// reply sends the read part m back to its client with status st.
func (s *shard) reply(m *msg, st Status) {
	m.status = st
	s.clk.After(netCycles, m.replyFn)
}

// serveRead rules on one arriving read part: reject it if the shard is dead,
// shed it if admission says the queue already owes too much latency, else
// queue it (or, with no admission layer configured, dispatch it directly —
// the original unbounded behavior overload runs measure against).
func (s *shard) serveRead(m *msg) {
	s.account(s.clk.Now())
	s.stats.Offered++
	if m.try > 0 {
		s.stats.Retried++
	}
	if s.dead {
		s.stats.Failed++
		s.reply(m, StatusDead)
		return
	}
	if s.cfg.MaxInflight <= 0 {
		s.startService(m)
		return
	}
	if s.cfg.Admission && s.shouldShed() {
		s.stats.Shed++
		s.reply(m, StatusShed)
		return
	}
	// Two priority classes: sessions with a part already served here go to
	// the hot queue and dequeue first, so in-flight sessions' reads are never
	// starved by a thundering herd of new opens.
	if s.cfg.Admission && s.served[m.key] {
		s.hotQ.push(m)
	} else {
		s.coldQ.push(m)
	}
	if depth := s.hotQ.len() + s.coldQ.len(); depth > s.stats.PeakQueue {
		s.stats.PeakQueue = depth
	}
	s.pump()
}

// pump dispatches queued parts into TIP while service slots are free, hot
// queue first. During a brownout window each dispatch is stretched by the
// fault plan's factor before it reaches TIP — the shard is alive but slow,
// which is exactly the regime admission control exists for.
func (s *shard) pump() {
	for s.inflight < s.cfg.MaxInflight {
		var m *msg
		switch {
		case s.hotQ.len() > 0:
			m = s.hotQ.pop()
		case s.coldQ.len() > 0:
			m = s.coldQ.pop()
		default:
			return
		}
		s.inflight++
		if f := s.brownFactor(); f > 1 {
			width := s.cfg.MaxInflight
			if width < 1 {
				width = 1
			}
			delay := sim.Time(int64(f-1) * s.svcEstimate() / int64(width))
			s.clk.After(delay, m.serviceFn)
			continue
		}
		s.startService(m)
	}
}

// startService moves one part into service: this is the Admitted ruling. If
// the shard died while the part waited (queued or brownout-delayed), the part
// is Failed instead — still exactly one ruling per offered part.
func (s *shard) startService(m *msg) {
	now := s.clk.Now()
	s.account(now)
	if s.dead {
		s.stats.Failed++
		if s.cfg.MaxInflight > 0 {
			s.inflight--
		}
		s.reply(m, StatusDead)
		return
	}
	s.stats.Admitted++
	s.served[m.key] = true
	cli := s.session(m.key)
	f := s.files[m.file]
	hinted := cli.Covered(f, m.part.Off, m.part.N)
	s.stats.ReadParts++
	if hinted {
		s.stats.HintedParts++
	}
	s.outstanding++
	if hinted {
		s.outHinted++
	}
	m.start, m.hinted = now, hinted
	if cli.Read(f, m.part.Off, m.part.N, hinted, m.doneFn) {
		s.endService(m, nil) // fully cached: tip never calls done on the immediate path
	}
}

// endService is TIP's completion of the read part m: the part leaves service
// and its reply goes back.
func (s *shard) endService(m *msg, err error) {
	end := s.clk.Now()
	s.account(end)
	s.outstanding--
	if m.hinted {
		s.outHinted--
	}
	s.observeService(int64(end - m.start))
	if err != nil {
		s.stats.ReadErrors++
	}
	st := StatusOK
	switch {
	case s.dead:
		st = StatusDead // completed on a dead shard: the reply never makes it
	case err != nil:
		st = StatusEIO
	}
	if s.cfg.MaxInflight > 0 {
		s.inflight--
		s.pump()
	}
	s.reply(m, st)
}

// die kills the shard: every queued part fails (the client's retry re-routes
// it through the ring, which learns of the death after the failure-detection
// window), pending hint ingestion is dropped, and future arrivals are refused
// at the door. Parts already in TIP service run to completion but reply
// StatusDead — the data of a dead node never reaches the client.
func (s *shard) die() {
	if s.dead {
		return
	}
	s.account(s.clk.Now())
	s.dead = true
	for _, q := range []*partQueue{&s.hotQ, &s.coldQ} {
		for q.len() > 0 {
			s.stats.Failed++
			s.reply(q.pop(), StatusDead)
		}
	}
	s.clk.Cancel(s.flushEv)
	s.flushEv = sim.Handle{}
	s.ingest = nil
}

// serveHints receives one hint message: the segments enter the ingestion
// queue and apply at the next flush — after hintBatchCycles, or the moment
// the queue reaches hintBatchMax (the cap is checked per segment, so the
// queue depth never exceeds it: PeakIngest <= hintBatchMax is a checked
// invariant). The session opens now even though the hints apply later, so a
// racing read lands on the right stream.
func (s *shard) serveHints(key SessionKey, segs []HintSeg) {
	if s.dead {
		return
	}
	s.stats.HintMsgs++
	s.stats.HintSegsIn += int64(len(segs))
	s.session(key)
	for _, sg := range segs {
		s.ingest = append(s.ingest, pendingHint{key: key, seg: sg})
		if n := len(s.ingest); n > s.stats.PeakIngest {
			s.stats.PeakIngest = n
		}
		if len(s.ingest) >= hintBatchMax {
			s.flush()
		}
	}
	if !s.clk.Pending(s.flushEv) && len(s.ingest) > 0 {
		s.flushEv = s.clk.After(hintBatchCycles, s.flushFn)
	}
}

// flush drains the ingestion queue into TIP, coalescing runs of contiguous
// segments from one session and file into single disclosures — the batching
// dividend: B small hint RPCs become one TIPIO_SEG-sized call.
func (s *shard) flush() {
	s.clk.Cancel(s.flushEv)
	s.flushEv = sim.Handle{}
	if len(s.ingest) == 0 {
		return
	}
	s.stats.Batches++
	batch := s.ingest
	s.ingest = nil
	for i := 0; i < len(batch); {
		cur := batch[i].seg
		j := i + 1
		for j < len(batch) && batch[j].key == batch[i].key &&
			batch[j].seg.File == cur.File && batch[j].seg.Off == cur.Off+cur.N {
			cur.N += batch[j].seg.N
			j++
		}
		if cli := s.sess[batch[i].key]; cli != nil {
			s.stats.AppliedSegs++
			cli.HintSeg(s.files[cur.File], cur.Off, cur.N)
		} else {
			s.stats.StaleSegs++ // session closed before the window expired
		}
		i = j
	}
	// Nothing in the loop reaches serveHints: the queue is still empty, and
	// takes the drained array back for the next batch.
	s.ingest = batch[:0]
}

// closeSession retires the session's hint stream; TIP reuses the client slot
// (and re-partitions the cache across the survivors).
func (s *shard) closeSession(key SessionKey) {
	if cli := s.sess[key]; cli != nil {
		cli.Close()
		delete(s.sess, key)
	}
	delete(s.served, key)
}
