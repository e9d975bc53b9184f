package cluster

// This file is the cluster harness and the client-side engine: New wires the
// ring, the shards and the population onto one shared virtual clock; Run
// drives the event loop until every session has completed and freezes the
// per-shard accounting at the end time. Each client is a small state
// machine — sessions arrive by the population's Poisson schedule, queue FIFO
// behind the client's running session, disclose their reads per shard, then
// issue each read as per-shard parts with think time between ops.
//
// The client side is where the overload-survival layer closes its loop: a
// part that comes back SHED/EIO/DEAD is retried with capped, seeded-jitter
// exponential backoff under a per-op virtual-time deadline; a per-shard
// circuit breaker fails fast toward shards that keep refusing; and when the
// fault plan kills a shard mid-run, the ring re-routes its keys so retries
// land on the surviving owner — the session re-opens there and its remaining
// reads are re-disclosed as hints before the retried read arrives.

import (
	"fmt"

	"spechint/internal/cache"
	"spechint/internal/clients"
	"spechint/internal/core"
	"spechint/internal/disk"
	"spechint/internal/fault"
	"spechint/internal/obs"
	"spechint/internal/sim"
	"spechint/internal/tip"
)

// The cluster's fixed shape. All times are virtual CPU cycles on the shared
// clock (233 MHz testbed scale).
const (
	vNodes = 64 // ring points per shard

	// netCycles is the one-way client<->shard network latency (~100 us);
	// every request and every reply pays it once.
	netCycles = 23_300

	// Hint ingestion batching: queued segments apply after hintBatchCycles
	// (~2 ms), or immediately once hintBatchMax are queued.
	hintBatchCycles = 466_000
	hintBatchMax    = 64

	// Admission control (Config.Admission): a part is shed when the queue
	// holds queueCap parts or its predicted wait exceeds latencyBudget
	// (~100 ms).
	queueCap      = 64
	latencyBudget = 23_300_000
)

// Config shapes a cluster.
type Config struct {
	Shards int // server nodes

	// GroupBlocks is the placement-group size in blocks: runs of GroupBlocks
	// consecutive file blocks share an owner, trading per-block placement
	// freedom for sequential locality within a shard's disk array.
	GroupBlocks int64

	// Clients is the population shape the shards build their corpus replicas
	// from. New overwrites it with the population's own config, so callers
	// never need to keep the two in sync by hand.
	Clients clients.Config

	Disk disk.Config // per-shard array
	TIP  tip.Config  // per-shard manager (cache partition included)

	// Hints disables disclosure entirely when false: every read is unhinted,
	// the baseline the hinted runs are measured against.
	Hints bool

	// MaxInflight bounds how many read parts a shard serves concurrently;
	// excess parts wait in the shard's admission queue. 0 is no bound: every
	// part leaves the queue the moment it enters.
	MaxInflight int

	// Admission arms load shedding at the shard boundary (requires
	// MaxInflight > 0): a part is shed when the queue's predicted wait
	// (depth x recent mean service / MaxInflight) exceeds latencyBudget, or
	// when the queue holds queueCap parts. It also dequeues reads of
	// sessions already in flight ahead of new sessions' first reads.
	Admission bool

	// Retry is the client-side reaction to SHED/EIO/DEAD replies: capped
	// exponential backoff with deterministic seeded jitter, bounded by
	// MaxAttempts sends per part and an optional per-op deadline.
	Retry clients.RetryPolicy

	// Breaker configures each client's per-shard circuit breaker; the zero
	// value disables it.
	Breaker clients.BreakerConfig

	// Fault, when non-nil, is the shard-level fault schedule: it can kill a
	// shard outright mid-run (the ring re-routes its keys to survivors) or
	// brown one out over a window (its service stretches, so admission
	// control starts shedding; requires MaxInflight > 0).
	Fault *fault.Plan

	// DetectCycles is the failure-detection latency: after the fault plan
	// kills a shard, clients keep routing to it — and collecting DEAD
	// replies — for DetectCycles before the ring marks it dead and re-routes
	// its keys. 0 means detection is instantaneous.
	DetectCycles int64

	// MaxCycles aborts a runaway run (0 = no bound).
	MaxCycles int64

	// Obs, when non-nil, receives every shard's lanes and gauges under
	// "sN:"-prefixed views of this one trace, plus cluster-wide overload
	// gauges (shed/retry totals, open breakers).
	Obs *obs.Trace
}

// DefaultConfig returns a cluster of `shards` nodes at testbed scale: two
// HP-C2247 disks and a 4 MB TIP cache per shard and 64 KB placement groups
// (one stripe unit). The admission layer is off (unbounded queueing, no
// retries are ever needed because nothing sheds or dies); see
// OverloadConfig.
func DefaultConfig(shards int) Config {
	tcfg := tip.DefaultConfig()
	tcfg.CacheBlocks = 4 << 20 / 8192
	return Config{
		Shards:      shards,
		GroupBlocks: 8,
		Disk:        core.TestbedDisk(2),
		TIP:         tcfg,
		Hints:       true,
		Retry: clients.RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: 466_000,    // ~2 ms, then 4, 8 ms ...
			MaxBackoff:  37_280_000, // capped at ~160 ms
			JitterSeed:  1,
		},
		Breaker:      clients.BreakerConfig{TripAfter: 8, Cooldown: 11_650_000}, // ~50 ms
		DetectCycles: 2_330_000,                                                 // ~10 ms failure detector
		MaxCycles:    1 << 42,
	}
}

// OverloadConfig is DefaultConfig with the overload-survival layer armed:
// bounded per-shard queues, cost-based admission against a latency budget,
// priority for in-flight sessions, and a per-op deadline so a client
// eventually gives up on a read the cluster cannot serve.
func OverloadConfig(shards int) Config {
	cfg := DefaultConfig(shards)
	cfg.MaxInflight = 4 * cfg.Disk.NumDisks
	cfg.Admission = true
	cfg.Retry.MaxAttempts = 8        // overload sheds often; keep trying
	cfg.Retry.Deadline = 932_000_000 // ~4 s per read op, retries included
	return cfg
}

// validate reports a configuration error, if any.
func (c Config) validate() error {
	switch {
	case c.Shards < 1:
		return fmt.Errorf("cluster: Shards = %d, want >= 1", c.Shards)
	case c.GroupBlocks < 1:
		return fmt.Errorf("cluster: GroupBlocks = %d, want >= 1", c.GroupBlocks)
	case c.MaxInflight < 0 || c.DetectCycles < 0:
		return fmt.Errorf("cluster: negative MaxInflight or DetectCycles")
	case c.Admission && c.MaxInflight < 1:
		return fmt.Errorf("cluster: Admission requires MaxInflight >= 1 (got %d)", c.MaxInflight)
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	if err := c.Breaker.Validate(); err != nil {
		return err
	}
	if c.Fault != nil {
		if err := c.Fault.ValidateShard(); err != nil {
			return err
		}
		if c.Fault.DieShard >= c.Shards {
			return fmt.Errorf("cluster: fault plan kills shard %d of %d", c.Fault.DieShard, c.Shards)
		}
		if c.Fault.DieShard >= 0 && c.Shards < 2 {
			return fmt.Errorf("cluster: cannot kill the only shard")
		}
		if c.Fault.BrownShard >= c.Shards {
			return fmt.Errorf("cluster: fault plan browns out shard %d of %d", c.Fault.BrownShard, c.Shards)
		}
		if c.Fault.BrownShard >= 0 && c.MaxInflight < 1 {
			// The stretch is a share of the service width; with no width
			// bound it would be zero and the brown-out a silent no-op.
			return fmt.Errorf("cluster: a brown-out requires MaxInflight >= 1")
		}
	}
	if int64(c.Disk.BlockSize) != c.Clients.BlockSize {
		return fmt.Errorf("cluster: disk block size %d != population block size %d",
			c.Disk.BlockSize, c.Clients.BlockSize)
	}
	return nil
}

// Cluster is one wired simulation instance. Build with New, drive with Run.
type Cluster struct {
	cfg      Config
	clk      *sim.Queue
	ring     *Ring
	shards   []*shard
	cls      []*clientRun
	fileSize int64

	remaining int // sessions not yet finished
	doneAt    sim.Time

	// The message free list, and scratch lists for routing: a read's parts,
	// a disclosure's parts and the hint messages it builds. Nothing that
	// fills one runs inside another's use.
	freeMsgs  []*msg
	readParts []ReadPart
	hintParts []ReadPart
	hintMsgs  []*msg

	// poison is set by tests only: released messages are poisoned and never
	// handed out again (msg.release).
	poison bool
}

// New wires a cluster for the given population. The population's config
// becomes cfg.Clients, so the corpus replicas match the generated schedules
// by construction.
func New(cfg Config, pop *clients.Population) (*Cluster, error) {
	cfg.Clients = pop.Cfg
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ring, err := newRing(cfg.Shards, vNodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:      cfg,
		clk:      sim.NewQueue(),
		ring:     ring,
		fileSize: cfg.Clients.FileBlocks * cfg.Clients.BlockSize,
	}
	// One zero-filled buffer backs every file of every shard's corpus replica
	// (fsim files reference their data, they do not copy it).
	corpus := make([]byte, c.fileSize)
	for i := 0; i < cfg.Shards; i++ {
		s, err := newShard(i, c.clk, &c.cfg, corpus)
		if err != nil {
			return nil, err
		}
		c.shards = append(c.shards, s)
	}
	for i, cl := range pop.Clients {
		for si := 1; si < len(cl.Sessions); si++ {
			if cl.Sessions[si].At < cl.Sessions[si-1].At {
				return nil, fmt.Errorf("cluster: client %d's session %d arrives before session %d", i, si, si-1)
			}
		}
		cr := &clientRun{c: c, id: i, sessions: cl.Sessions, breakers: make([]*clients.Breaker, cfg.Shards)}
		for sh := range cr.breakers {
			cr.breakers[sh] = clients.NewBreaker(cfg.Breaker)
		}
		cr.arriveFn = cr.arrive
		cr.issueFn = cr.issueOp
		c.cls = append(c.cls, cr)
		c.remaining += len(cl.Sessions)
	}
	if cfg.Obs != nil {
		c.installObs(cfg.Obs)
	}
	return c, nil
}

// PumpWork sums every shard's tip.Manager.PumpWork: the sessions the hint
// pumps visited, the passes they made over a session's window, the hinted
// blocks those passes examined and the ones they went on to ask the disks
// about, and the partition-share recomputes.
func (c *Cluster) PumpWork() tip.PumpWork {
	var sum tip.PumpWork
	for _, s := range c.shards {
		w := s.sub.TIP.PumpWork()
		sum.Walks += w.Walks
		sum.Steps += w.Steps
		sum.Visits += w.Visits
		sum.PartitionSums += w.PartitionSums
	}
	return sum
}

// installObs contributes the cluster-wide overload gauges: total sheds seen
// by clients, total retries sent, and how many per-shard breakers are not
// closed right now.
func (c *Cluster) installObs(tr *obs.Trace) {
	tr.AddGauge("client_sheds_seen", func() float64 {
		var n int64
		for _, cr := range c.cls {
			n += cr.shedSeen
		}
		return float64(n)
	})
	tr.AddGauge("client_retries", func() float64 {
		var n int64
		for _, cr := range c.cls {
			n += cr.retries
		}
		return float64(n)
	})
	tr.AddGauge("breakers_open", func() float64 {
		now := int64(c.clk.Now())
		open := 0
		for _, cr := range c.cls {
			for _, b := range cr.breakers {
				if b.State(now) != clients.BreakerClosed {
					open++
				}
			}
		}
		return float64(open)
	})
}

// Run drives the event loop until every session has completed, then freezes
// the shards at the end time. It may be called once.
func (c *Cluster) Run() (*Result, error) {
	for _, cr := range c.cls {
		for _, sess := range cr.sessions {
			c.clk.Schedule(sim.Time(sess.At), cr.arriveFn)
		}
	}
	if p := c.cfg.Fault; p != nil && p.DieShard >= 0 {
		id := p.DieShard
		// The shard dies first; the ring learns DetectCycles later. In the
		// window between, clients still route to the corpse, collect DEAD
		// replies and burn retry attempts — the failure-detection latency a
		// real cluster pays.
		c.clk.Schedule(p.DieShardAt, func() { c.shards[id].die() })
		c.clk.Schedule(p.DieShardAt+sim.Time(c.cfg.DetectCycles), func() { c.ring.markDead(id) })
	}
	if err := core.Drive(c.clk, c.cfg.Obs, c.cfg.MaxCycles, population{c}); err != nil {
		return nil, err
	}
	c.doneAt = c.clk.Now()
	for _, s := range c.shards {
		s.freeze(c.doneAt)
		s.sub.TIP.FinishRun()
	}
	return c.result(), nil
}

// population is the cluster as core.Drive sees it: pure events. Nothing ever
// wants the CPU, so the driver only ever jumps from one event to the next.
type population struct{ c *Cluster }

func (p population) Done() bool             { return p.c.remaining == 0 }
func (population) Step(int64) (bool, error) { return false, nil }
func (p population) Stuck() error {
	return fmt.Errorf("cluster: event queue drained with %d sessions unfinished", p.c.remaining)
}

// ---------------------------------------------------------------- clients --

// clientRun is the live state machine of one population client.
type clientRun struct {
	c        *Cluster
	id       int
	sessions []clients.Session

	arrived int   // sessions arrived so far: they arrive in index order
	pending []int // arrived, not yet started (FIFO open queue)
	running bool
	cur     int   // session index in flight
	op      int   // next read op
	touched []int // shards this session has messaged (close targets)

	// The client's two timer events, bound once: a session's arrival and the
	// next op's issue after think time.
	arriveFn func()
	issueFn  func()

	breakers []*clients.Breaker // per-shard; a disabled breaker never opens

	issueAt   sim.Time
	deadline  sim.Time // absolute per-op deadline; 0 = none
	opFailed  bool     // some part of the current op was abandoned
	partsLeft int
	curThink  int64

	lats  []int64 // per-read latency, cycles, completion order
	reads int64

	// Resilience counters (aggregated into Result).
	retries     int64 // part resends (attempt > 0)
	shedSeen    int64 // SHED replies received
	deadSeen    int64 // DEAD replies received
	eioSeen     int64 // EIO replies received
	brokerFast  int64 // parts failed fast by an open breaker, no message sent
	failedReads int64 // ops abandoned after retries/deadline
}

// arrive queues the next session to arrive; if the client is idle it starts
// immediately. Run schedules the arrivals in session order and New checks
// that their times do not decrease, so the clock fires them in that order.
func (cr *clientRun) arrive() {
	cr.pending = append(cr.pending, cr.arrived)
	cr.arrived++
	if !cr.running {
		cr.start()
	}
}

// touch records a shard as messaged by the current session and reports
// whether this is the session's first contact with it.
func (cr *clientRun) touch(sh int) (first bool) {
	for _, t := range cr.touched {
		if t == sh {
			return false
		}
	}
	cr.touched = append(cr.touched, sh)
	return true
}

// start opens the next pending session: disclose the whole session's read
// span per shard (one Hint message each), then issue the first read.
func (cr *clientRun) start() {
	cr.cur = cr.pending[0]
	cr.pending = cr.pending[:copy(cr.pending, cr.pending[1:])]
	cr.running = true
	cr.op = 0
	cr.touched = cr.touched[:0]
	cr.disclose(0, -1)
	cr.issueOp()
}

// disclose sends the session's read span from fromOff on as one Hint message
// per owning shard: to every owner at session start (only < 0), or to the one
// shard the session is about to message for the first time — the failover
// path: when the ring re-routes a dead shard's keys, the new owner receives
// the hints it needs before (in virtual time: concurrently with) the retried
// read.
func (cr *clientRun) disclose(fromOff int64, only int) {
	c := cr.c
	sess := cr.sessions[cr.cur]
	if !c.cfg.Hints || len(sess.Reads) == 0 {
		return
	}
	lastOp := sess.Reads[len(sess.Reads)-1]
	span := lastOp.Off + lastOp.N
	if fromOff >= span {
		return
	}
	key := SessionKey{Client: cr.id, Session: cr.cur}
	c.hintParts = splitRange(c.hintParts, c.ring, c.cfg.GroupBlocks, c.cfg.Clients.BlockSize, sess.File, fromOff, span-fromOff, c.fileSize)
	msgs := c.hintMsgs[:0] // one per shard, in the order the shards first appear
	for _, p := range c.hintParts {
		if only >= 0 && p.Shard != only {
			continue
		}
		var m *msg
		for _, x := range msgs {
			if x.target.id == p.Shard {
				m = x
				break
			}
		}
		if m == nil {
			m = c.newMsg(msgHints, cr, c.shards[p.Shard])
			m.key = key
			msgs = append(msgs, m)
		}
		m.segs = append(m.segs, HintSeg{File: sess.File, Off: p.Off, N: p.N})
	}
	for _, m := range msgs {
		cr.touch(m.target.id)
		m.send()
	}
	clear(msgs)
	c.hintMsgs = msgs[:0]
}

// issueOp sends the current read op as per-shard parts, or finishes the
// session when the ops are exhausted.
func (cr *clientRun) issueOp() {
	c := cr.c
	sess := cr.sessions[cr.cur]
	if cr.op >= len(sess.Reads) {
		cr.finish()
		return
	}
	r := sess.Reads[cr.op]
	if r.Off >= c.fileSize || r.Off < 0 { // degenerate op (outside the file): skip it
		cr.op++
		cr.issueOp()
		return
	}
	cr.partsLeft = 1
	cr.opFailed = false
	cr.issueAt = c.clk.Now()
	cr.deadline = 0
	if d := c.cfg.Retry.Deadline; d > 0 {
		cr.deadline = cr.issueAt + sim.Time(d)
	}
	cr.curThink = r.Think
	cr.sendPart(r.Off, r.N, 0)
}

// sendPart routes the byte range [off, off+n) through the ring — at send
// time, so a failover between attempts re-routes it — and issues one message
// per owner part. attempt 0 is the first send; retries carry their attempt
// number so shards can count them.
func (cr *clientRun) sendPart(off, n int64, attempt int) {
	c := cr.c
	sess := cr.sessions[cr.cur]
	key := SessionKey{Client: cr.id, Session: cr.cur}
	parts := splitRange(c.readParts, c.ring, c.cfg.GroupBlocks, c.cfg.Clients.BlockSize, sess.File, off, n, c.fileSize)
	c.readParts = parts
	if len(parts) == 0 {
		// The range fell entirely outside the file (clamped away): resolve
		// the pending part slot as served-empty.
		cr.partDone()
		return
	}
	cr.partsLeft += len(parts) - 1
	now := int64(c.clk.Now())
	for _, p := range parts {
		if !cr.breakers[p.Shard].Allow(now) {
			// Fail fast: the breaker is open, don't even pay the network.
			cr.brokerFast++
			cr.partFailed(p.Off, p.N, attempt)
			continue
		}
		if cr.touch(p.Shard) {
			cr.disclose(p.Off, p.Shard)
		}
		if attempt > 0 {
			cr.retries++
		}
		m := c.newMsg(msgRead, cr, c.shards[p.Shard])
		m.key, m.file, m.part, m.try = key, sess.File, p, attempt
		m.send()
	}
}

// partReply handles one part's response: success resolves the part, anything
// else feeds the breaker and enters the retry path. The part's message is
// released first: what follows may send new ones.
func (cr *clientRun) partReply(m *msg) {
	p, attempt, st := m.part, m.try, m.status
	m.release()
	now := int64(cr.c.clk.Now())
	br := cr.breakers[p.Shard]
	if st == StatusOK {
		br.OnSuccess()
		cr.partDone()
		return
	}
	br.OnFailure(now)
	switch st {
	case StatusShed:
		cr.shedSeen++
	case StatusDead:
		cr.deadSeen++
	case StatusEIO:
		cr.eioSeen++
	}
	cr.partFailed(p.Off, p.N, attempt)
}

// partFailed decides between retrying the range after a jittered backoff and
// abandoning the op: attempts are bounded by Retry.MaxAttempts and the next
// retry must still fit under the op's deadline.
func (cr *clientRun) partFailed(off, n int64, attempt int) {
	c := cr.c
	rp := c.cfg.Retry
	sends := attempt + 1
	if sends < rp.MaxAttempts {
		backoff := rp.Backoff(cr.id, cr.cur, cr.op, attempt+1)
		if cr.deadline == 0 || c.clk.Now()+sim.Time(backoff) <= cr.deadline {
			m := c.newMsg(msgRead, cr, nil)
			m.part, m.try = ReadPart{Off: off, N: n}, attempt+1
			c.clk.After(sim.Time(backoff), m.resendFn)
			return
		}
	}
	cr.opFailed = true
	cr.partDone()
}

// partDone resolves one pending part slot; when the op's last slot resolves,
// a fully served op records its latency (a failed op records a failure
// instead) and the next op is scheduled after the think time.
func (cr *clientRun) partDone() {
	cr.partsLeft--
	if cr.partsLeft > 0 {
		return
	}
	c := cr.c
	if cr.opFailed {
		cr.failedReads++
	} else {
		cr.lats = append(cr.lats, int64(c.clk.Now()-cr.issueAt))
		cr.reads++
	}
	cr.op++
	c.clk.After(sim.Time(cr.curThink), cr.issueFn)
}

// finish closes the session on every shard it touched and starts the next
// queued session, if any.
func (cr *clientRun) finish() {
	c := cr.c
	key := SessionKey{Client: cr.id, Session: cr.cur}
	for _, shid := range cr.touched {
		m := c.newMsg(msgClose, cr, c.shards[shid])
		m.key = key
		m.send()
	}
	cr.running = false
	c.remaining--
	if len(cr.pending) > 0 {
		cr.start()
	}
}

// ---------------------------------------------------------------- results --

// ClientResult summarizes one client's view of the run.
type ClientResult struct {
	ID       int
	Sessions int
	Reads    int64
	Failed   int64 // ops abandoned after retries/deadline
	Retries  int64
	MeanLat  float64 // mean read latency, cycles
	MaxLat   int64
}

// ShardResult is one shard's complete accounting: protocol counters, the
// exhaustive stall buckets, and the TIP/cache/disk layer stats beneath.
type ShardResult struct {
	ID      int
	Buckets Buckets
	Stats   ShardStats
	Tip     tip.Stats
	Cache   cache.Stats
	Disk    disk.Stats
}

// Result is the outcome of one cluster run.
type Result struct {
	Elapsed sim.Time
	Reads   int64 // fully served read ops
	Blocks  int64

	// Overload/failure accounting, cluster-wide.
	FailedReads  int64 // ops abandoned after retries/deadline
	Retries      int64 // part resends
	ShedSeen     int64 // SHED replies clients received
	DeadSeen     int64 // DEAD replies clients received
	EIOSeen      int64 // EIO replies clients received
	BreakerFast  int64 // parts failed fast by open breakers (no message sent)
	BreakerTrips int64 // breaker openings across all clients

	// Latencies holds every served read's latency in cycles, client-id order
	// then completion order within a client — a deterministic ordering
	// suitable for percentile extraction. Failed ops contribute no sample.
	Latencies []int64

	Clients []ClientResult
	Shards  []ShardResult

	admission bool // for Check
}

// Seconds converts the run's elapsed virtual time to testbed seconds.
func (r *Result) Seconds() float64 { return float64(r.Elapsed) / core.CPUHz }

// Throughput returns completed reads per testbed second.
func (r *Result) Throughput() float64 {
	if s := r.Seconds(); s > 0 {
		return float64(r.Reads) / s
	}
	return 0
}

// Check verifies the run's conservation invariants and returns the first
// violation: every shard's stall buckets must sum exactly to elapsed, every
// offered part must be ruled exactly once (Admitted + Shed + Failed ==
// Offered), the hint ingestion queue must never have exceeded its cap, and
// the admission queue must never have exceeded queueCap. Tests and the bench
// experiments fail loudly on any violation.
func (r *Result) Check() error {
	for _, s := range r.Shards {
		if got := s.Buckets.total(); got != int64(r.Elapsed) {
			return fmt.Errorf("cluster: shard %d stall buckets sum to %d, elapsed %d", s.ID, got, r.Elapsed)
		}
		st := s.Stats
		if st.Admitted+st.Shed+st.Failed != st.Offered {
			return fmt.Errorf("cluster: shard %d conservation: admitted %d + shed %d + failed %d != offered %d",
				s.ID, st.Admitted, st.Shed, st.Failed, st.Offered)
		}
		if st.ReadParts != st.Admitted {
			return fmt.Errorf("cluster: shard %d served %d parts but admitted %d", s.ID, st.ReadParts, st.Admitted)
		}
		if st.PeakIngest > hintBatchMax {
			return fmt.Errorf("cluster: shard %d ingestion queue peaked at %d, cap %d", s.ID, st.PeakIngest, hintBatchMax)
		}
		if r.admission && st.PeakQueue > queueCap {
			return fmt.Errorf("cluster: shard %d admission queue peaked at %d, cap %d", s.ID, st.PeakQueue, queueCap)
		}
		if !r.admission && st.Shed != 0 {
			return fmt.Errorf("cluster: shard %d shed %d parts with admission disabled", s.ID, st.Shed)
		}
	}
	return nil
}

func (c *Cluster) result() *Result {
	res := &Result{
		Elapsed:   c.doneAt,
		admission: c.cfg.Admission,
	}
	for _, cr := range c.cls {
		sum := int64(0)
		mx := int64(0)
		for _, l := range cr.lats {
			sum += l
			if l > mx {
				mx = l
			}
		}
		mean := 0.0
		if len(cr.lats) > 0 {
			mean = float64(sum) / float64(len(cr.lats))
		}
		res.Clients = append(res.Clients, ClientResult{
			ID: cr.id, Sessions: len(cr.sessions), Reads: cr.reads,
			Failed: cr.failedReads, Retries: cr.retries,
			MeanLat: mean, MaxLat: mx,
		})
		res.Reads += cr.reads
		res.FailedReads += cr.failedReads
		res.Retries += cr.retries
		res.ShedSeen += cr.shedSeen
		res.DeadSeen += cr.deadSeen
		res.EIOSeen += cr.eioSeen
		res.BreakerFast += cr.brokerFast
		for _, b := range cr.breakers {
			res.BreakerTrips += b.Trips()
		}
		res.Latencies = append(res.Latencies, cr.lats...)
	}
	for _, s := range c.shards {
		res.Blocks += s.sub.TIP.Stats().ReadBlocks
		res.Shards = append(res.Shards, ShardResult{
			ID:      s.id,
			Buckets: s.buckets,
			Stats:   s.stats,
			Tip:     s.sub.TIP.Stats(),
			Cache:   s.sub.TIP.Cache().Stats(),
			Disk:    s.sub.Arr.Stats(),
		})
	}
	return res
}
