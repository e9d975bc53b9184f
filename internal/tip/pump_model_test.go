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

// The pump skips a client whose last pass was pure until one of that pass's
// inputs moves (pumpMemo). The claim is that skipping is invisible: the same
// fetches, evictions and hint-distance refreshes at the same virtual instants
// as a pump that walks every open client's window every time. This test holds
// the two side by side — two identical rigs, one seeded script, the second
// rig's memos discarded before every pump — and compares everything
// observable after every step.
//
// The same comparison holds the saturated short step (Manager.saturated) to
// the probing one: the second rig also probes at every step (probeAlways), so
// a guard missing from the short step, or a wake-up missing from the memo it
// leaves, shows as a divergence — provided the script has been where each
// guard matters, which the saw* flags below assert.
//
// It also holds the woken set to the sweep over every slot it replaced: the
// second rig's forgotten memos wake every client, so its pumps visit them all.
// A wake missing from the memoised rig is a client that should have walked and
// was not visited; invariants() also catches one at the end of every step.
//
// And it holds recycling to allocation: the first rig reuses released readOps
// and fetch records, the second poisons them (Manager.poison) and allocates
// afresh, so an object used after its release panics there or shows as a
// divergence here.

// forgetMemos makes every client of m walk at its next visit.
func forgetMemos(m *Manager) {
	for _, c := range m.clients {
		c.stale()
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
// one of four doors — a client call the script makes, a clock event the
// script runs, a read completion it is called back for, the array's OnIdle —
// and before() stands at each of them, so on the forgetful side no pump ever
// finds a memo left by an earlier one.
type pumpRig struct {
	clk    *sim.Queue
	arr    *disk.Array
	m      *Manager
	inj    *recInjector
	files  []*fsim.File
	slots  []*Client // nil: closed, not yet reopened
	forget bool
	dones  []string // read completions, in order

	sawPending, sawDemotionCleared, sawReentrant, sawRefusedHeld bool

	// Where the woken set can go wrong (first rig only).
	sawSettledVisit bool // a freed slot woke a client that found it re-taken at its visit
	sawDeferred     bool // a pass woke a client behind the cursor: it waits for the next pump
	sawDeadWake     bool // a disk's death woke a client that was settled and not woken
	sawIdlePump     bool // a pump from the array's OnIdle visited a client

	// Where the saturated short step can go wrong (first rig only; the second
	// never reports saturated). A step that runs no clock event can neither
	// free a prefetch slot nor change a demotion, and a death is for good, so
	// what held both before and after it held for every pass inside it.
	sawShortRewrite  bool // a saturated pass moved a resident block's HintDist
	sawShortNewOwner bool // ... and took it over from another owner or from no hint
	sawBoundDead     bool // a pass with every disk at its bound and one dead
	sawBoundDemoted  bool // a pass with every disk at its bound and a block demoted
	sawSlotRegained  bool // one clock event took a settled client out of saturation into a fetch
}

// atBound reports that every disk is at the depth bound — saturation without
// the two guards.
func (r *pumpRig) atBound() bool {
	bound := r.m.cfg.MaxDepthPerDisk
	return bound > 0 && !slices.ContainsFunc(r.m.prefDepth, func(d int) bool { return d < bound })
}

type hintRow struct {
	dist  int64
	owner int
}

func (r *pumpRig) hintRows() map[int64]hintRow {
	rows := map[int64]hintRow{}
	r.m.cache.ForEach(func(b *cache.Block) { rows[b.LB] = hintRow{b.HintDist, b.Owner} })
	return rows
}

func (r *pumpRig) before() {
	if r.forget {
		forgetMemos(r.m)
	}
}

func newPumpRig(t *testing.T, depth int, forget bool) *pumpRig {
	t.Helper()
	dcfg := disk.Config{
		NumDisks: 3, BlockSize: 1024, StripeUnit: 2048,
		PositionCycles: 1000, TransferCycles: 100, TrackBufCycles: 10, TrackBufBlocks: 4,
		DelayFactor: 1, MaxPrefetchPerDisk: 10, // TIP unbounded (depth 0): the array itself refuses
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
	m.probeAlways = forget
	m.poison = forget
	arr.SetInjector(r.inj)
	idle := arr.OnIdle
	arr.OnIdle = func(dk int) {
		r.before()
		visits := m.work.Visits
		idle(dk)
		r.sawIdlePump = r.sawIdlePump || m.work.Visits > visits
	}
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
	conf   float64
	events int
	then   *pumpStep // a read's completion callback issues this read
}

func (s *pumpStep) String() string {
	str := fmt.Sprintf("%s slot=%d f%d off=%d n=%d hinted=%v conf=%.2f events=%d", s.kind, s.slot, s.file, s.off, s.n, s.hinted, s.conf, s.events)
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
	imm := r.slots[s.slot].Read(r.files[s.file], s.off, s.n, s.hinted, func(err error) {
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
	if len(r.m.pendingDemand) > 0 {
		r.sawPending = true
	}
}

func (s clientSet) has(id int) bool {
	return id>>6 < len(s) && s[id>>6]&(1<<(id&63)) != 0
}

// settledUnwoken reports an open client that the pump would not visit and
// would not walk if it did.
func (r *pumpRig) settledUnwoken() bool {
	return slices.ContainsFunc(r.m.clients, func(c *Client) bool { return !c.closed && c.settled() && !r.m.woken.has(c.id) })
}

func (r *pumpRig) apply(s *pumpStep) {
	work, deadSeen, settledUnwoken := r.m.work, r.m.dead, r.settledUnwoken()
	defer func() {
		w := r.m.work
		// A settled visit is a freed slot's wake that came too late: nothing
		// else wakes a settled client (a closed one is never woken).
		r.sawSettledVisit = r.sawSettledVisit || w.Visits-work.Visits > w.Walks-work.Walks
		r.sawDeadWake = r.sawDeadWake || r.m.dead != deadSeen && settledUnwoken
		// A read's last act is a pump: a client woken now was woken behind
		// its cursor.
		if s.kind == "read" && r.slots[s.slot] != nil {
			r.sawDeferred = r.sawDeferred || slices.ContainsFunc(r.m.clients, func(c *Client) bool { return !c.closed && r.m.woken.has(c.id) })
		}
	}()
	if s.kind != "run" && r.atBound() {
		sat, dead, demoted := r.m.saturated(), r.arr.DeadCount() > 0, len(r.m.demoted) > 0
		walks := r.m.PumpWork().Walks
		rows := r.hintRows()
		defer func() {
			if r.m.PumpWork().Walks == walks || !r.atBound() {
				return
			}
			r.sawBoundDead = r.sawBoundDead || dead
			r.sawBoundDemoted = r.sawBoundDemoted || demoted
			if !sat || !r.m.saturated() {
				return
			}
			// Only the pump gives a block a hint distance.
			for lb, now := range r.hintRows() {
				if was, ok := rows[lb]; now.dist != cache.NoHint && (!ok || was != now) {
					r.sawShortRewrite = true
					if !ok || was.dist == cache.NoHint || was.owner != now.owner {
						r.sawShortNewOwner = true
					}
				}
			}
		}()
	}
	switch s.kind {
	case "hint":
		r.before()
		if s.conf > 0 {
			r.slots[s.slot].HintSegConf(r.files[s.file], s.off, s.n, s.conf)
		} else {
			r.slots[s.slot].HintSeg(r.files[s.file], s.off, s.n)
		}
	case "read":
		r.read(s)
	case "cancel":
		r.before()
		r.slots[s.slot].CancelAll()
	case "prior":
		r.before()
		r.slots[s.slot].SetPrior(s.conf)
	case "close":
		r.before()
		r.slots[s.slot].Close()
		r.slots[s.slot] = nil
	case "open":
		r.before()
		r.slots[s.slot] = r.m.NewClient()
	case "run":
		for i := 0; i < s.events; i++ {
			r.before()
			demoted := len(r.m.demoted)
			settledSat := r.m.saturated() && slices.ContainsFunc(r.slots, func(c *Client) bool { return c != nil && c.settled() })
			prefetches := r.m.Stats().HintPrefetches
			if !r.clk.RunNext() {
				break
			}
			if len(r.m.demoted) < demoted {
				r.sawDemotionCleared = true
			}
			if settledSat && r.m.Stats().HintPrefetches > prefetches {
				r.sawSlotRegained = true
			}
		}
	}
	for _, c := range r.slots {
		if c != nil && len(c.memo.refused) > 0 && c.settled() {
			r.sawRefusedHeld = true
		}
	}
}

// invariants checks what the memoised rig keeps instead of recomputing: an
// open client the pump would not visit has nothing to do (unless a death the
// pump has yet to see will wake it), the cached partition inputs are the
// id-order sums, and every slot's share is the eager formula's. Asking for
// the shares leaves the sums cached, so a step that moves an input without
// invalidating them fails the next check.
func (r *pumpRig) invariants() error {
	m := r.m
	for _, c := range m.clients {
		if !c.closed && !c.settled() && !m.woken.has(c.id) && m.dead == m.arr.DeadCount() {
			return fmt.Errorf("client %d is unsettled and not woken", c.id)
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
		rows = append(rows, fmt.Sprintf("%03d:%v/d%d/o%d", b.LB, b.State(), b.HintDist, b.Owner))
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
// that grow the read-ahead.
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
		return &pumpStep{kind: "open", slot: slot}
	}
	switch x := rng.Intn(100); {
	case x < 30:
		s := &pumpStep{kind: "hint", slot: slot, file: rng.Intn(5)}
		s.off = rng.Int63n(pumpFileBytes - 1024)
		s.n = 1 + rng.Int63n(6*1024)
		if rng.Intn(4) > 0 {
			s.off &^= 1023 // mostly block-aligned, as the apps hint
		}
		if rng.Intn(6) == 0 {
			s.conf = float64(1+rng.Intn(4)) / 4
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
	case x < 73:
		return &pumpStep{kind: "prior", slot: slot, conf: float64(rng.Intn(5)) / 4}
	case x < 76:
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
			var lazyWalks, eagerWalks int64
			var faults FaultCounters
			var sawPending, sawCleared, sawRejected, sawReentrant, sawRefusedHeld bool
			var sawShortRewrite, sawShortNewOwner, sawBoundDead, sawBoundDemoted, sawSlotRegained bool
			var sawSettledVisit, sawDeferred, sawDeadWake, sawIdlePump bool
			var lazySteps, lazyProbes int64
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
						t.Fatalf("seed %d step %d (%v): the rigs diverged\nmemoised:\n%s\nwalk-always:\n%s", seed, i, s, got, want)
					}
					if !reflect.DeepEqual(lazy.inj.log[reqs:], eager.inj.log[reqs:]) {
						t.Fatalf("seed %d step %d (%v): disk request streams diverged\nmemoised:    %v\nwalk-always: %v",
							seed, i, s, lazy.inj.log[reqs:], eager.inj.log[reqs:])
					}
					if !reflect.DeepEqual(lazy.dones[dones:], eager.dones[dones:]) {
						t.Fatalf("seed %d step %d (%v): read completions diverged\nmemoised:    %v\nwalk-always: %v",
							seed, i, s, lazy.dones[dones:], eager.dones[dones:])
					}
					reqs, dones = len(lazy.inj.log), len(lazy.dones)
				}
				lw, ew := lazy.m.PumpWork(), eager.m.PumpWork()
				lazyWalks, eagerWalks = lazyWalks+lw.Walks, eagerWalks+ew.Walks
				lazySteps, lazyProbes = lazySteps+lw.Steps, lazyProbes+lw.Probes
				f := lazy.m.Faults()
				faults.FetchErrors += f.FetchErrors
				faults.FetchRetries += f.FetchRetries
				faults.DemotedBlocks += f.DemotedBlocks
				faults.DeadSkips += f.DeadSkips
				faults.FailedDemand += f.FailedDemand
				sawPending = sawPending || lazy.sawPending
				sawCleared = sawCleared || lazy.sawDemotionCleared
				sawRejected = sawRejected || lazy.arr.Stats().RejectedReqs > 0
				sawReentrant = sawReentrant || lazy.sawReentrant
				sawRefusedHeld = sawRefusedHeld || lazy.sawRefusedHeld
				sawShortRewrite = sawShortRewrite || lazy.sawShortRewrite
				sawShortNewOwner = sawShortNewOwner || lazy.sawShortNewOwner
				sawBoundDead = sawBoundDead || lazy.sawBoundDead
				sawBoundDemoted = sawBoundDemoted || lazy.sawBoundDemoted
				sawSlotRegained = sawSlotRegained || lazy.sawSlotRegained
				sawSettledVisit = sawSettledVisit || lazy.sawSettledVisit
				sawDeferred = sawDeferred || lazy.sawDeferred
				sawDeadWake = sawDeadWake || lazy.sawDeadWake
				sawIdlePump = sawIdlePump || lazy.sawIdlePump
				if lazy.arr.DeadCount() != 1 {
					t.Errorf("seed %d: the script ended before the disk died", seed)
				}
			}
			// The script must have been where the memo can go wrong, and the
			// memo must have been in play.
			t.Logf("walks: memoised %d, walk-always %d; %d of the memoised rig's %d steps probed the disks; %+v",
				lazyWalks, eagerWalks, lazyProbes, lazySteps, faults)
			if testing.Short() {
				return
			}
			if lazyWalks*10 > eagerWalks*9 {
				t.Errorf("the memoised pump walked %d times against %d: the memo hardly ever held", lazyWalks, eagerWalks)
			}
			if faults.FetchRetries == 0 || faults.DemotedBlocks == 0 || faults.DeadSkips == 0 || faults.FailedDemand == 0 {
				t.Errorf("fault paths not all reached: %+v", faults)
			}
			if !sawCleared {
				t.Error("no demand read ever cleared a demotion")
			}
			if !sawReentrant {
				t.Error("no completion callback ever issued the next read itself")
			}
			if !sawIdlePump {
				t.Error("no pump from the array's OnIdle ever visited a client")
			}
			if !sawDeferred {
				t.Error("no pass ever woke a client behind the pump's cursor")
			}
			if !sawDeadWake {
				t.Error("the disk's death never woke a settled client")
			}
			if !sawPending {
				t.Error("no demand miss ever found the cache full (pendingDemand)")
			}
			if depth == 0 && !sawRejected {
				t.Error("the array never refused a prefetch (the Drop path)")
			}
			if depth > 0 && !sawRefusedHeld {
				t.Error("no client ever stayed settled against a disk at its depth bound")
			}
			if depth == 0 {
				return
			}
			if !sawShortRewrite || !sawShortNewOwner {
				t.Errorf("no saturated pass ever refreshed a resident block's hint distance (%v) or took one over (%v)", sawShortRewrite, sawShortNewOwner)
			}
			// Twenty-four slots are rarely all taken by a 16-block horizon;
			// three are, most of the time, faults or no faults.
			if depth == 1 && !sawBoundDead {
				t.Error("no pass ever ran with every disk at its depth bound and one of them dead")
			}
			if depth == 1 && !sawBoundDemoted {
				t.Error("no pass ever ran with every disk at its depth bound and a block demoted")
			}
			if !sawSlotRegained {
				t.Error("no freed slot ever woke a client settled by a saturated pass into starting a fetch")
			}
			if !sawSettledVisit {
				t.Error("no client woken by a freed slot ever found it re-taken at its visit")
			}
		})
	}
}
