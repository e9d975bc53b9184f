package tip

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"spechint/internal/cache"
	"spechint/internal/disk"
	"spechint/internal/fault"
	"spechint/internal/fsim"
	"spechint/internal/sim"
)

// Before its client's reach a pass visits only the due positions and the gaps
// on a disk with a free slot (Client.gaps); the cache computes a hinted block's distance from its
// position and its owner's base instead of the pass storing it. The claim is
// that both are invisible: the same fetches, evictions and hint distances at
// the same virtual instants as a pump that visits every position of every
// open client's window on every pump. This test holds the two side by side —
// two identical rigs, one seeded script, the second rig's frontiers forgotten
// and every open client woken before every pump — and compares everything
// observable after every step.
//
// The same comparison holds the missing-position index — before its reach a
// pass skips every position that is neither due nor a gap on a disk with a
// free slot (Client.gaps, Client.roomy) — to the pass that visits every
// position: a missing block the index lost, a skipped position that needed a
// visit, or a wake-up missing from the refusers the skipped gaps leave, shows
// as a divergence — provided the script has been where each matters, which
// the saw* flags below assert.
//
// It also holds the woken set to the sweep over every slot it replaced: the
// second rig wakes every client at every door, so its pumps visit them all. A
// wake missing from the first rig is a client that should have walked and was
// not visited.
//
// And it holds recycling to allocation: the first rig reuses released readOps
// and fetch records, the second poisons them (Manager.poison) and allocates
// afresh, so an object used after its release panics there or shows as a
// divergence here. TestPumpLedger holds the first rig's decisions and
// distances to recorded hashes.

// forgetFrontiers makes every open client of m visit its whole window at its
// next pass, and wakes it.
func forgetFrontiers(m *Manager) {
	for _, c := range m.clients {
		if !c.closed {
			c.forget()
			c.stale()
		}
	}
}

// recInjector records the ordered stream of requests entering service (disk,
// physical block, virtual time) and otherwise is the plan it wraps.
type recInjector struct {
	plan *fault.Plan
	log  []string
}

func (r *recInjector) DiskDead(dk int, now sim.Time) bool { return r.plan.DiskDead(dk, now) }
func (r *recInjector) NoteDeadHit()                       { r.plan.NoteDeadHit() }
func (r *recInjector) Outcome(dk int, phys int64, now sim.Time) (int, bool) {
	spike, fail := r.plan.Outcome(dk, phys, now)
	r.log = append(r.log, fmt.Sprintf("t=%d disk=%d phys=%d fail=%v", now, dk, phys, fail))
	return spike, fail
}

// pumpRig is one side of the comparison. Every pump in it is reached through
// one of three doors — a client call the script makes, a clock event the
// script runs, a read completion it is called back for — and before() stands
// at each of them, so on the forgetful side no pump ever finds a frontier left
// by an earlier one.
type pumpRig struct {
	clk    *sim.Queue
	arr    *disk.Array
	m      *Manager
	inj    *recInjector
	files  []*fsim.File
	slots  []*Client // nil: closed, not yet reopened
	forget bool
	dones  []string // read completions, in order

	sawPending, sawDemotionCleared, sawReentrant bool

	// sawDeadSkip: after a pump, a hinted block within an open client's
	// horizon lay on the dead disk, uncached: one the pass passes by.
	sawDeadSkip bool

	// sawStaticTail: a hinted read of a proved stream exhausted its segment
	// and read ahead past it.
	sawStaticTail bool

	// sawHeldRecur: a block consumed in transit, its distance held, is hinted
	// again further down its owner's window, where the next pass compares
	// that distance with its own.
	sawHeldRecur bool

	// Where the woken set can go wrong (first rig only).
	sawDeferred bool // a pass woke a client behind the cursor: it waits for the next pump
	sawDeadWake bool // a disk's death woke a client that was not woken
	sawStarved  bool // a client waited for room in its full partition (Manager.hungry)
	sawRefilled bool // a disk freed a slot and filled again with a client it turned away left waiting
	sawQuiet    bool // a cache change in a granule a sleeping client hinted into left it asleep

	// Where a pass with every disk full can go wrong. A step that runs no
	// clock event can neither free a prefetch slot nor change a demotion, and
	// a death is for good, so what held both before and after it held for
	// every pass inside it.
	sawFullRewrite  bool // a pass with every disk full moved a resident block's distance
	sawFullNewOwner bool // ... and took it over from another owner or from no hint
	sawBoundDead    bool // a pass with every disk at its bound and one dead
	sawBoundDemoted bool // a pass with every disk at its bound and a block demoted
	sawSlotRegained bool // one clock event took a client from every disk full into a fetch
}

// atBound reports that every disk is at the depth bound.
func (r *pumpRig) atBound() bool {
	bound := r.m.cfg.MaxDepthPerDisk
	return bound > 0 && !slices.ContainsFunc(r.m.prefDepth, func(d int) bool { return d < bound })
}

// full is atBound with no disk dead and no block demoted: a pass skips all it
// has examined.
func (r *pumpRig) full() bool {
	return r.atBound() && r.arr.DeadCount() == 0 && len(r.m.demoted) == 0
}

type hintRow struct {
	dist  int64
	owner int
}

func (r *pumpRig) hintRows() map[int64]hintRow {
	rows := map[int64]hintRow{}
	r.m.cache.ForEach(func(b *cache.Block) { rows[b.LB] = hintRow{r.m.cache.Dist(b), b.Owner} })
	return rows
}

func (r *pumpRig) before() {
	if r.forget {
		forgetFrontiers(r.m)
	}
}

func newPumpRig(t *testing.T, depth int, forget bool) *pumpRig {
	t.Helper()
	dcfg := disk.Config{
		NumDisks: 3, BlockSize: 1024, StripeUnit: 2048,
		PositionCycles: 1000, TransferCycles: 100, TrackBufCycles: 10, TrackBufBlocks: 4, DelayFactor: 1,
	}
	cfg := Config{
		CacheBlocks: 32, Horizon: 16, MinHorizon: 2, ReadaheadMax: 4,
		MaxDepthPerDisk: depth, RADepthPerDisk: 4, MaxHintSegs: 64,
		MaxFetchRetries: 1, RetryBaseCycles: 1500, RetryCapCycles: 6000,
	}
	clk := sim.NewQueue()
	fs := fsim.New(dcfg.BlockSize)
	arr, err := disk.New(clk, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(clk, arr, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(3)
	plan.Rate, plan.Burst = 0.06, 3
	plan.DieDisk, plan.DieAt = 2, 400_000 // a script runs some 650,000 cycles
	r := &pumpRig{clk: clk, arr: arr, m: m, inj: &recInjector{plan: plan}, forget: forget}
	m.poison = forget
	if !forget {
		m.cache.SetOnChange(func(lb int64, owner int, pos int64) {
			var asleep []*Client
			for _, c := range m.interest[lb>>granuleShift] {
				if !m.woken.has(c.id) && (c.id != m.acting || lb != m.actLB) {
					asleep = append(asleep, c)
				}
			}
			m.blockChanged(lb, owner, pos)
			r.sawQuiet = r.sawQuiet || slices.ContainsFunc(asleep, func(c *Client) bool { return !m.woken.has(c.id) })
		})
	}
	arr.SetInjector(r.inj)
	// Five files of 40 blocks: 200 logical blocks, four granules of the
	// interest index, every client hinting into every file.
	for i := 0; i < 5; i++ {
		r.files = append(r.files, fs.MustCreate(fmt.Sprintf("f%d", i), make([]byte, 40*1024)))
	}
	for i := 0; i < 5; i++ {
		r.slots = append(r.slots, m.NewClient())
	}
	return r
}

// pumpStep is one step of the script, decided from script state alone so both
// rigs receive exactly the same calls.
type pumpStep struct {
	kind   string
	slot   int
	file   int
	off, n int64
	hinted bool
	proved bool // an open: the stream is marked proved, as core marks a static one
	events int
	then   *pumpStep // a read's completion callback issues this read
}

func (s *pumpStep) String() string {
	str := fmt.Sprintf("%s slot=%d f%d off=%d n=%d hinted=%v proved=%v events=%d", s.kind, s.slot, s.file, s.off, s.n, s.hinted, s.proved, s.events)
	if s.then != nil {
		str += " then{" + s.then.String() + "}"
	}
	return str
}

func (r *pumpRig) read(s *pumpStep) {
	if r.slots[s.slot] == nil {
		return // closed since the read was drawn
	}
	tag := fmt.Sprintf("slot=%d f%d off=%d n=%d", s.slot, s.file, s.off, s.n)
	r.before()
	c := r.slots[s.slot]
	ra := c.Stats().RAPrefetches
	imm := c.Read(r.files[s.file], s.off, s.n, s.hinted, func(err error) {
		r.before()
		r.dones = append(r.dones, fmt.Sprintf("t=%d %s err=%v", r.clk.Now(), tag, err))
		// The cluster dispatches a session's next part from inside the
		// completion callback; so does this, even while another read still
		// waits on the block that just completed (cache.Complete pins it
		// until that waiter has run).
		if s.then != nil {
			r.sawReentrant = true
			r.read(s.then)
		}
		r.before()
	})
	if imm {
		r.dones = append(r.dones, fmt.Sprintf("t=%d %s immediate", r.clk.Now(), tag))
	}
	if s.hinted && c.proved && c.Stats().RAPrefetches > ra {
		r.sawStaticTail = true
	}
	if len(r.m.pendingDemand) > 0 {
		r.sawPending = true
	}
}

// has reports whether id is in s.
func (s clientSet) has(id int) bool {
	return id>>6 < len(s) && s[id>>6]&(1<<(id&63)) != 0
}

// unwoken reports an open client that the pump would not visit.
func (r *pumpRig) unwoken() bool {
	return slices.ContainsFunc(r.m.clients, func(c *Client) bool { return !c.closed && !r.m.woken.has(c.id) })
}

func (r *pumpRig) apply(s *pumpStep) {
	deadSeen, unwoken := r.m.dead, r.unwoken()
	defer func() {
		r.sawDeadWake = r.sawDeadWake || r.m.dead != deadSeen && unwoken
		// A read's last act is a pump: a client woken now was woken behind
		// its cursor.
		if s.kind == "read" && r.slots[s.slot] != nil {
			r.sawDeferred = r.sawDeferred || slices.ContainsFunc(r.m.clients, func(c *Client) bool { return !c.closed && r.m.woken.has(c.id) })
		}
	}()
	if s.kind != "run" && r.atBound() {
		full, dead, demoted := r.full(), r.arr.DeadCount() > 0, len(r.m.demoted) > 0
		walks := r.m.PumpWork().Walks
		rows := r.hintRows()
		defer func() {
			if r.m.PumpWork().Walks == walks || !r.atBound() {
				return
			}
			r.sawBoundDead = r.sawBoundDead || dead
			r.sawBoundDemoted = r.sawBoundDemoted || demoted
			if !full || !r.full() {
				return
			}
			// Only the pump gives a block a hint distance.
			for lb, now := range r.hintRows() {
				if was, ok := rows[lb]; now.dist != cache.NoHint && (!ok || was != now) {
					r.sawFullRewrite = true
					if !ok || was.dist == cache.NoHint || was.owner != now.owner {
						r.sawFullNewOwner = true
					}
				}
			}
		}()
	}
	switch s.kind {
	case "hint":
		r.before()
		r.slots[s.slot].HintSeg(r.files[s.file], s.off, s.n)
	case "read":
		r.read(s)
	case "cancel":
		r.before()
		r.slots[s.slot].CancelAll()
	case "close":
		r.before()
		r.slots[s.slot].Close()
		r.slots[s.slot] = nil
	case "open":
		r.before()
		r.slots[s.slot] = r.m.NewClient()
		if s.proved {
			r.slots[s.slot].Proved()
		}
	case "run":
		for i := 0; i < s.events; i++ {
			r.before()
			demoted := len(r.m.demoted)
			full := r.full()
			prefetches := r.m.Stats().HintPrefetches
			waiting := r.waitingRefusers()
			if !r.clk.RunNext() {
				break
			}
			r.sawRefilled = r.sawRefilled || r.refilled(waiting)
			if len(r.m.demoted) < demoted {
				r.sawDemotionCleared = true
			}
			if full && r.m.Stats().HintPrefetches > prefetches {
				r.sawSlotRegained = true
			}
		}
	}
	r.sawStarved = r.sawStarved || slices.ContainsFunc(r.m.clients, func(c *Client) bool { return c.hungry >= 0 })
	r.sawDeadSkip = r.sawDeadSkip || r.deadSkip()
	r.m.cache.ForEach(func(b *cache.Block) {
		if b.Held() && b.Owner < len(r.m.clients) {
			if c := r.m.clients[b.Owner]; !c.closed && c.find(b.LB, c.at, c.tail) >= 0 {
				r.sawHeldRecur = true
			}
		}
	})
}

// waitingRefuser is a client that disk dk turned away, asleep while dk is full,
// with the prefetch records queued on dk then and the client's prefetch count.
type waitingRefuser struct {
	c          *Client
	dk         int
	queued     map[*fetch]int64
	prefetches int64
}

// waitingRefusers lists, before a clock event, the sleeping clients that a
// full disk turned away (first rig only).
func (r *pumpRig) waitingRefusers() []waitingRefuser {
	var out []waitingRefuser
	for dk, s := range r.m.refusers {
		if r.forget || r.m.cfg.MaxDepthPerDisk == 0 || r.m.prefDepth[dk] < r.m.cfg.MaxDepthPerDisk {
			continue
		}
		queued := map[*fetch]int64{}
		for _, f := range r.m.fetches {
			if f.Disk == dk && f.queued && f.Pri == disk.Prefetch && !f.RideAlong {
				queued[f] = f.lb
			}
		}
		for id := s.next(0); id >= 0; id = s.next(id + 1) {
			if c := r.m.clients[id]; !c.closed && !r.m.woken.has(id) {
				out = append(out, waitingRefuser{c, dk, queued, c.stats.HintPrefetches})
			}
		}
	}
	return out
}

// refilled reports that, in the clock event since waitingRefusers, a prefetch
// on a full disk completed and the disk filled again while a client it had
// turned away was passed over: still turned away, asleep, not starved, and
// with no prefetch started.
func (r *pumpRig) refilled(waiting []waitingRefuser) bool {
	for _, w := range waiting {
		done := false
		for f, lb := range w.queued {
			done = done || f.lb != lb || !f.queued || f.Disk != w.dk
		}
		if done && r.m.prefDepth[w.dk] >= r.m.cfg.MaxDepthPerDisk && r.m.refusers[w.dk].has(w.c.id) &&
			!r.m.woken.has(w.c.id) && w.c.hungry < 0 && w.c.stats.HintPrefetches == w.prefetches {
			return true
		}
	}
	return false
}

// deadSkip reports a hinted block within an open client's horizon that lies
// on a dead disk and is not cached.
func (r *pumpRig) deadSkip() bool {
	if r.arr.DeadCount() == 0 {
		return false
	}
	bs := int64(r.m.fs.BlockSize())
	for _, c := range r.m.clients {
		if c.closed {
			continue
		}
		base := c.base(bs)
		end := base + int64(c.effHorizon())
		for i, p := c.segAt(base), base; i < len(c.hints) && p < end; i++ {
			s := &c.hints[i]
			for ; p < min(end, s.pos+s.nBlocks); p++ {
				if lb := s.firstLB + p - s.pos; r.arr.Dead(r.arr.DiskOf(lb)) && r.m.cache.Get(lb) == nil {
					return true
				}
			}
		}
	}
	return false
}

// invariants checks what the first rig keeps instead of recomputing: each
// disk's prefetch depth is the number of prefetch records queued on it (the
// one depth count there is; the script kills a disk mid-run), every position
// of an open client's window in [base, reach) that holds no cached block is a
// gap, and the gaps are in order (unless its next pass visits every position
// anyway), the cached partition inputs are the
// id-order sums, and every slot's share is the eager formula's. Asking for the
// shares leaves the sums cached, so a step that moves an input without
// invalidating them fails the next check.
func (r *pumpRig) invariants() error {
	m := r.m
	queued := make([]int, len(m.prefDepth))
	for _, f := range m.fetches {
		if f.Pri == disk.Prefetch && f.queued && !f.RideAlong {
			queued[f.Disk]++
		}
	}
	if !slices.Equal(queued, m.prefDepth) {
		return fmt.Errorf("prefetch depth per disk %v, but %v prefetches queued", m.prefDepth, queued)
	}
	bs := int64(m.fs.BlockSize())
	for _, c := range m.clients {
		if c.closed || len(m.demoted) > 0 || m.arr.DeadCount() > 0 {
			continue
		}
		for i, p := c.segAt(c.base(bs)), c.base(bs); i < len(c.hints) && p < c.reach; i++ {
			s := &c.hints[i]
			for ; p < min(c.reach, s.pos+s.nBlocks); p++ {
				if m.cache.Get(s.firstLB+p-s.pos) != nil {
					continue
				}
				if i := c.gapAt(p); i == len(c.gaps) || c.gaps[i]/int64(len(m.prefDepth)) != p {
					return fmt.Errorf("client %d: position %d, examined (reach %d), holds no block and is not a gap", c.id, p, c.reach)
				}
			}
		}
		if !slices.IsSorted(c.gaps) || len(c.gaps) > 0 && c.gaps[len(c.gaps)-1]/int64(len(m.prefDepth)) >= c.reach {
			return fmt.Errorf("client %d: gaps %v out of order or past reach %d", c.id, c.gaps, c.reach)
		}
	}
	open, sumW := 0, 0.0
	for _, c := range m.clients {
		if !c.closed {
			open++
			sumW += c.weight()
		}
	}
	if sh := m.shares; sh.valid && (sh.open != open || sh.sumW != sumW) {
		return fmt.Errorf("cached partition inputs (%d open, weight %v), want (%d, %v)", sh.open, sh.sumW, open, sumW)
	}
	avail := m.cfg.CacheBlocks - max(1, m.cfg.CacheBlocks/4)
	for _, c := range m.clients {
		want := 0
		if !c.closed && open > 1 {
			want = max(1, int(float64(avail)*c.weight()/sumW))
		}
		if got := m.partition(c.id); got != want {
			return fmt.Errorf("client %d's partition is %d, want %d", c.id, got, want)
		}
	}
	return nil
}

// observe renders everything the two rigs must agree on: the clock, every
// cached block's (LB, state, HintDist, Owner), each slot's counters and the
// manager's aggregate, the fault counters, the per-disk prefetch depth and the
// array's own counters. The disk request stream and the read completions are
// compared as they grow.
func (r *pumpRig) observe() string {
	var rows []string
	r.m.cache.ForEach(func(b *cache.Block) {
		rows = append(rows, fmt.Sprintf("%03d:%v/d%d/o%d", b.LB, b.State(), r.m.cache.Dist(b), b.Owner))
	})
	sort.Strings(rows)
	var sb strings.Builder
	fmt.Fprintf(&sb, "now=%d blocks=%v\n", r.clk.Now(), rows)
	for i, c := range r.slots {
		if c != nil {
			fmt.Fprintf(&sb, " slot%d id=%d acc=%v queue=%d %+v\n", i, c.ID(), c.Accuracy(), len(c.hints)-c.head, c.Stats())
		}
	}
	fmt.Fprintf(&sb, " all=%+v\n faults=%+v prefDepth=%v pending=%d demoted=%d\n disk=%+v cache=%+v",
		r.m.Stats(), r.m.Faults(), r.m.prefDepth, len(r.m.pendingDemand), len(r.m.demoted), r.arr.Stats(), r.m.cache.Stats())
	return sb.String()
}

// pumpScript draws the steps. It keeps its own idea of what each slot has
// hinted and not yet read, only to draw plausible reads: a hinted read of the
// queue head (whole or the first part of it), of a later segment (bypassing
// the ones before), of something never hinted, and unhinted sequential runs
// that grow the read-ahead. A reopened slot is proved one time in three:
// marked at open, as core marks a static-mode process, so every hint it
// discloses is a proved one.
type pumpScript struct {
	rng     *rand.Rand
	open    []bool
	pending [][]pumpStep // hinted, unread segments per slot
	seq     []int64      // next sequential unhinted offset per slot (in file slot%5)
}

const pumpFileBytes = 40 * 1024

func (p *pumpScript) hintedRead(slot int) *pumpStep {
	q := p.pending[slot]
	if len(q) == 0 {
		return nil
	}
	k := 0
	if p.rng.Intn(5) == 0 {
		k = p.rng.Intn(len(q)) // bypass what lies before
	}
	seg := q[k]
	s := &pumpStep{kind: "read", slot: slot, file: seg.file, off: seg.off, n: seg.n, hinted: true}
	if seg.n > 1024 && p.rng.Intn(3) == 0 {
		// Partial consume: read the first part, leave the rest hinted.
		s.n = 1024 * (1 + p.rng.Int63n(seg.n/1024))
		q[k].off, q[k].n = seg.off+s.n, seg.n-s.n
		p.pending[slot] = q[k:]
		if q[k].n <= 0 {
			p.pending[slot] = q[k+1:]
		}
		return s
	}
	p.pending[slot] = q[k+1:]
	return s
}

func (p *pumpScript) next() *pumpStep {
	rng := p.rng
	slot := rng.Intn(len(p.open))
	if !p.open[slot] {
		p.open[slot] = true
		p.pending[slot], p.seq[slot] = nil, 0
		return &pumpStep{kind: "open", slot: slot, proved: rng.Intn(3) == 0}
	}
	switch x := rng.Intn(100); {
	case x < 30:
		s := &pumpStep{kind: "hint", slot: slot, file: rng.Intn(5)}
		s.off = rng.Int63n(pumpFileBytes - 1024)
		s.n = 1 + rng.Int63n(6*1024)
		if rng.Intn(4) > 0 {
			s.off &^= 1023 // mostly block-aligned, as the apps hint
		}
		p.pending[slot] = append(p.pending[slot], *s)
		return s
	case x < 55:
		s := p.hintedRead(slot)
		if s == nil {
			return &pumpStep{kind: "run", events: 1 + rng.Intn(4)}
		}
		if rng.Intn(3) == 0 {
			s.then = p.hintedRead(slot) // may be nil
		}
		return s
	case x < 65:
		// Unhinted: a sequential run in the slot's own file, or a random poke.
		s := &pumpStep{kind: "read", slot: slot, file: slot % 5, off: p.seq[slot], n: 1024 * (1 + rng.Int63n(3))}
		if rng.Intn(4) == 0 || s.off >= pumpFileBytes {
			s.file, s.off = rng.Intn(5), rng.Int63n(pumpFileBytes)
			p.seq[slot] = 0
		} else {
			p.seq[slot] = s.off + s.n
		}
		return s
	case x < 68:
		// Claims to be hinted, matches nothing in the queue.
		return &pumpStep{kind: "read", slot: slot, file: rng.Intn(5), off: rng.Int63n(pumpFileBytes), n: 2048, hinted: true}
	case x < 71:
		p.pending[slot] = nil
		return &pumpStep{kind: "cancel", slot: slot}
	case x < 74:
		p.open[slot] = false
		return &pumpStep{kind: "close", slot: slot}
	default:
		return &pumpStep{kind: "run", events: 1 + rng.Intn(6)}
	}
}

func TestPumpMemoIsInvisible(t *testing.T) {
	const steps = 2500
	seeds := int64(20)
	if testing.Short() {
		seeds = 2 // the race detector's share; too few to reach every path below
	}
	for _, depth := range []int{0, 1, 8} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			t.Parallel()
			var lazySteps, eagerSteps int64
			var faults FaultCounters
			var sawPending, sawCleared, sawReentrant, sawHeldRecur, sawDeadSkip, sawStaticTail bool
			var sawFullRewrite, sawFullNewOwner, sawBoundDead, sawBoundDemoted, sawSlotRegained bool
			var sawDeferred, sawDeadWake, sawStarved, sawRefilled, sawQuiet bool
			for seed := int64(0); seed < seeds; seed++ {
				lazy, eager := newPumpRig(t, depth, false), newPumpRig(t, depth, true)
				script := &pumpScript{rng: rand.New(rand.NewSource(seed)), open: make([]bool, 5),
					pending: make([][]pumpStep, 5), seq: make([]int64, 5)}
				for i := range script.open {
					script.open[i] = true
				}
				reqs, dones := 0, 0
				for i := 0; i < steps; i++ {
					s := script.next()
					if i == steps-1 {
						s = &pumpStep{kind: "run", events: 1 << 20} // drain
					}
					lazy.apply(s)
					eager.apply(s)
					if err := lazy.invariants(); err != nil {
						t.Fatalf("seed %d step %d (%v): %v", seed, i, s, err)
					}
					if got, want := lazy.observe(), eager.observe(); got != want {
						t.Fatalf("seed %d step %d (%v): the rigs diverged\nfrontier:\n%s\nwhole window:\n%s", seed, i, s, got, want)
					}
					if !reflect.DeepEqual(lazy.inj.log[reqs:], eager.inj.log[reqs:]) {
						t.Fatalf("seed %d step %d (%v): disk request streams diverged\nfrontier:     %v\nwhole window: %v",
							seed, i, s, lazy.inj.log[reqs:], eager.inj.log[reqs:])
					}
					if !reflect.DeepEqual(lazy.dones[dones:], eager.dones[dones:]) {
						t.Fatalf("seed %d step %d (%v): read completions diverged\nfrontier:     %v\nwhole window: %v",
							seed, i, s, lazy.dones[dones:], eager.dones[dones:])
					}
					reqs, dones = len(lazy.inj.log), len(lazy.dones)
				}
				lw, ew := lazy.m.PumpWork(), eager.m.PumpWork()
				lazySteps, eagerSteps = lazySteps+lw.Steps, eagerSteps+ew.Steps
				f := lazy.m.Faults()
				faults.FetchErrors += f.FetchErrors
				faults.FetchRetries += f.FetchRetries
				faults.DemotedBlocks += f.DemotedBlocks
				faults.FailedDemand += f.FailedDemand
				sawPending = sawPending || lazy.sawPending
				sawCleared = sawCleared || lazy.sawDemotionCleared
				sawReentrant = sawReentrant || lazy.sawReentrant
				sawHeldRecur = sawHeldRecur || lazy.sawHeldRecur
				sawDeadSkip = sawDeadSkip || lazy.sawDeadSkip
				sawStaticTail = sawStaticTail || lazy.sawStaticTail
				sawFullRewrite = sawFullRewrite || lazy.sawFullRewrite
				sawFullNewOwner = sawFullNewOwner || lazy.sawFullNewOwner
				sawBoundDead = sawBoundDead || lazy.sawBoundDead
				sawBoundDemoted = sawBoundDemoted || lazy.sawBoundDemoted
				sawSlotRegained = sawSlotRegained || lazy.sawSlotRegained
				sawDeferred = sawDeferred || lazy.sawDeferred
				sawDeadWake = sawDeadWake || lazy.sawDeadWake
				sawStarved = sawStarved || lazy.sawStarved
				sawRefilled = sawRefilled || lazy.sawRefilled
				sawQuiet = sawQuiet || lazy.sawQuiet
				if lazy.arr.DeadCount() != 1 {
					t.Errorf("seed %d: the script ended before the disk died", seed)
				}
			}
			// The script must have been where the frontier can go wrong, and
			// the frontier must have been in play.
			t.Logf("steps: frontier %d, whole window %d; %+v", lazySteps, eagerSteps, faults)
			if testing.Short() {
				return
			}
			if lazySteps*10 > eagerSteps*9 {
				t.Errorf("the frontier pump took %d steps against %d: it hardly ever skipped", lazySteps, eagerSteps)
			}
			if faults.FetchRetries == 0 || faults.DemotedBlocks == 0 || faults.FailedDemand == 0 {
				t.Errorf("fault paths not all reached: %+v", faults)
			}
			if !sawDeadSkip {
				t.Error("no pass ever passed by a hinted block on the dead disk")
			}
			if !sawStaticTail {
				t.Error("no proved stream ever read ahead past the segment a read exhausted")
			}
			if !sawCleared {
				t.Error("no demand read ever cleared a demotion")
			}
			if !sawReentrant {
				t.Error("no completion callback ever issued the next read itself")
			}
			if !sawDeferred {
				t.Error("no pass ever woke a client behind the pump's cursor")
			}
			if !sawDeadWake {
				t.Error("the disk's death never woke a client")
			}
			if !sawStarved {
				t.Error("no client ever waited for room in its full partition")
			}
			if !sawQuiet {
				t.Error("no cache change ever left asleep a client that hinted into its granule")
			}
			if !sawPending {
				t.Error("no demand miss ever found the cache full (pendingDemand)")
			}
			if !sawHeldRecur {
				t.Error("no block consumed in transit was ever hinted again in its owner's window")
			}
			if depth == 0 {
				return
			}
			if !sawFullRewrite || !sawFullNewOwner {
				t.Errorf("no pass with every disk full ever moved a resident block's hint distance (%v) or took one over (%v)", sawFullRewrite, sawFullNewOwner)
			}
			// Twenty-four slots are rarely all taken by a 16-block horizon;
			// three are, most of the time, faults or no faults.
			if depth == 1 && !sawBoundDead {
				t.Error("no pass ever ran with every disk at its depth bound and one of them dead")
			}
			if depth == 1 && !sawBoundDemoted {
				t.Error("no pass ever ran with every disk at its depth bound and a block demoted")
			}
			if !sawRefilled {
				t.Error("no disk ever freed a slot and filled again while a client it turned away was passed over")
			}
			if !sawSlotRegained {
				t.Error("no freed slot ever woke a client a pass with every disk full left into starting a fetch")
			}
		})
	}
}
