package cache

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refCache is a naive reference model of Cache semantics: one slice of
// blocks, one slice of logical block numbers for the LRU order, every count
// derived by a linear scan. It is obviously correct and obviously slow; the
// real Cache (map + intrusive list + maintained per-owner counts) must match
// it exactly under any interleaving of its operations, including waiters
// that re-enter the cache from inside Complete and Fail. While Complete wakes
// a block's waiters, the block is pinned until the last one runs: no
// eviction may take it from under a waiter still to come.
type refCache struct {
	capacity   int
	blocks     []*refBlock
	lru        []int64     // valid blocks, front = LRU
	partitions map[int]int // shared with the real cache's partition function
	acc        func(owner int) float64
	stats      Stats

	// What the generator has exercised, for the coverage check at the end of
	// TestCacheMatchesModel: seen counts SetHintFor moves by kind and state,
	// ownTies the evictOwnFurthest calls that had to choose among equally
	// distant blocks, ownTiesTouched those where a Touch had reordered them
	// (the victim was not the first of them to arrive).
	seen                    map[string]int
	arrivals                int
	ownTies, ownTiesTouched int
	pinSkips                int // eviction scans that passed over a pinned block
}

type refBlock struct {
	lb       int64
	origin   Origin
	hintDist int64
	owner    int
	state    State
	uses     int
	demanded bool
	waiters  []func(bool)
	arrived  int  // order of Complete
	pinned   bool // Complete is waking its waiters and one is still to run
}

func (r *refCache) get(lb int64) *refBlock {
	for _, b := range r.blocks {
		if b.lb == lb {
			return b
		}
	}
	return nil
}

// mustBe returns the block if it is present in the given state and panics
// otherwise — the precondition every transition of the real cache checks.
func (r *refCache) mustBe(lb int64, st State) *refBlock {
	b := r.get(lb)
	if b == nil || b.state != st {
		panic("ref: bad state")
	}
	return b
}

func (r *refCache) hinted(owner int) int {
	n := 0
	for _, b := range r.blocks {
		if b.hintDist != NoHint && b.owner == owner {
			n++
		}
	}
	return n
}

// evictable reports whether an eviction scan may take b, counting the pinned
// blocks it passes over.
func (r *refCache) evictable(b *refBlock) bool {
	if b.pinned {
		r.pinSkips++
	}
	return !b.pinned
}

// remove takes b out of the block set and the LRU order.
func (r *refCache) remove(b *refBlock) {
	for i, x := range r.blocks {
		if x == b {
			r.blocks = append(r.blocks[:i], r.blocks[i+1:]...)
			break
		}
	}
	for i, lb := range r.lru {
		if lb == b.lb {
			r.lru = append(r.lru[:i], r.lru[i+1:]...)
			break
		}
	}
}

func (r *refCache) evict(b *refBlock) {
	r.stats.EvictedClean++
	r.noteUnused(b)
	r.remove(b)
}

func (r *refCache) noteUnused(b *refBlock) {
	if b.uses == 0 && b.origin == OriginHint {
		r.stats.UnusedHint++
	}
	if b.uses == 0 && b.origin == OriginReadahead {
		r.stats.UnusedRA++
	}
}

// evictOwnFurthest: the owner's unpinned valid hinted block with the largest
// distance (the least recently used of equals), if it is further out than
// incoming.
func (r *refCache) evictOwnFurthest(owner int, incoming int64) bool {
	var victim *refBlock
	for _, lb := range r.lru {
		b := r.get(lb)
		if b.hintDist != NoHint && b.owner == owner && r.evictable(b) && (victim == nil || b.hintDist > victim.hintDist) {
			victim = b
		}
	}
	if victim == nil || victim.hintDist <= incoming {
		return false
	}
	tied, first := 0, victim
	for _, b := range r.blocks {
		if b.state == Valid && !b.pinned && b.owner == owner && b.hintDist == victim.hintDist {
			tied++
			if b.arrived < first.arrived {
				first = b
			}
		}
	}
	if tied > 1 {
		r.ownTies++
		if first != victim {
			r.ownTiesTouched++
		}
	}
	r.evict(victim)
	return true
}

func (r *refCache) evictFor(owner int, origin Origin, hintDist int64) bool {
	for _, lb := range r.lru {
		if b := r.get(lb); b.hintDist == NoHint && r.evictable(b) {
			r.evict(b)
			return true
		}
	}
	if hintDist == NoHint {
		if origin == OriginDemand {
			return r.evictOwnFurthest(owner, -1)
		}
		return r.evictOwnFurthest(owner, NoHint)
	}
	// Benefit of holding a block = accuracy(owner) / (distance + 1), compared
	// cross-multiplied exactly as the real cache does so the floats agree.
	var victim *refBlock
	for _, lb := range r.lru {
		b := r.get(lb)
		if !r.evictable(b) {
			continue
		}
		if victim == nil || r.acc(b.owner)*float64(victim.hintDist+1) < r.acc(victim.owner)*float64(b.hintDist+1) {
			victim = b
		}
	}
	if victim == nil || !(r.acc(victim.owner)*float64(hintDist+1) < r.acc(owner)*float64(victim.hintDist+1)) {
		return false
	}
	if victim.owner != owner {
		r.stats.CrossHintEvicts++
	}
	r.evict(victim)
	return true
}

// cacheOps is the surface the driver exercises, implemented by the model
// directly and by realCache over *Cache.
type cacheOps interface {
	AcquireFor(owner int, lb int64, origin Origin, hintDist int64) bool
	Complete(lb int64)
	Fail(lb int64)
	Wait(lb int64, fn func(bool))
	Touch(lb int64)
	NoteDemandWait(lb int64)
	SetHintFor(lb int64, owner int, dist int64)
}

type realCache struct{ *Cache }

func (c realCache) AcquireFor(owner int, lb int64, origin Origin, hintDist int64) bool {
	return c.Cache.AcquireFor(owner, lb, origin, hintDist) != nil
}

func (c realCache) Wait(lb int64, fn func(bool)) {
	c.Cache.Wait(lb, func(_ int64, valid bool) { fn(valid) })
}

func (r *refCache) AcquireFor(owner int, lb int64, origin Origin, hintDist int64) bool {
	if r.get(lb) != nil {
		panic("ref: acquire of present block")
	}
	if max := r.partitions[owner]; hintDist != NoHint && max > 0 && r.hinted(owner) >= max {
		if !r.evictOwnFurthest(owner, hintDist) {
			return false
		}
	}
	if len(r.blocks) >= r.capacity && !r.evictFor(owner, origin, hintDist) {
		return false
	}
	r.blocks = append(r.blocks, &refBlock{lb: lb, origin: origin, hintDist: hintDist, owner: owner, state: InTransit})
	return true
}

func (r *refCache) Complete(lb int64) {
	b := r.mustBe(lb, InTransit)
	b.state = Valid
	r.arrivals++
	b.arrived = r.arrivals
	r.lru = append(r.lru, lb)
	ws := b.waiters
	b.waiters = nil
	for i, w := range ws {
		b.pinned = i < len(ws)-1
		w(true)
	}
	b.pinned = false
}

func (r *refCache) Fail(lb int64) {
	b := r.mustBe(lb, InTransit)
	r.stats.FailedLoads++
	r.remove(b)
	ws := b.waiters
	b.waiters = nil
	for _, w := range ws {
		w(false)
	}
}

func (r *refCache) Wait(lb int64, fn func(bool)) {
	b := r.mustBe(lb, InTransit)
	b.waiters = append(b.waiters, fn)
}

func (r *refCache) Touch(lb int64) {
	b := r.mustBe(lb, Valid)
	r.stats.Hits++
	if b.uses > 0 {
		r.stats.Reuses++
	} else if b.origin != OriginDemand && !b.demanded {
		r.stats.FullyPref++
	}
	b.uses++
	r.remove(b)
	r.blocks = append(r.blocks, b)
	r.lru = append(r.lru, lb)
}

func (r *refCache) NoteDemandWait(lb int64) {
	b := r.mustBe(lb, InTransit)
	if !b.demanded && b.origin != OriginDemand {
		r.stats.PartialWaits++
	}
	b.demanded = true
}

func (r *refCache) SetHintFor(lb int64, owner int, dist int64) {
	b := r.get(lb)
	if b == nil {
		return
	}
	move := "rehint"
	switch {
	case b.hintDist == NoHint && dist == NoHint:
		move = "none"
	case b.hintDist == NoHint:
		move = "hint"
	case dist == NoHint:
		move = "unhint"
	case b.owner != owner:
		move = "to-other-owner"
	}
	r.seen[fmt.Sprint(move, "/", b.state)]++
	// Ownership moves with a hint; losing the hint leaves the last owner.
	if dist != NoHint {
		b.owner = owner
	}
	b.hintDist = dist
}

func blockRow(lb int64, st State, origin Origin, dist int64, owner, uses int, demanded bool, waiters int) string {
	return fmt.Sprintf("%d:%v/%v/d%d/o%d/u%d/%v/w%d", lb, st, origin, dist, owner, uses, demanded, waiters)
}

// describeReal and describeRef render everything observable about a cache: resident blocks with
// their states, the LRU order, the per-owner hinted counts and every counter.
func describeReal(c *Cache, owners int) string {
	var rows []string
	c.ForEach(func(b *Block) {
		rows = append(rows, blockRow(b.LB, b.state, b.Origin, c.Dist(b), b.Owner, int(b.uses), b.Demanded(), len(b.waiters)))
	})
	sort.Strings(rows)
	var lru []int64
	for b := c.lruHead; b != nil; b = b.next {
		lru = append(lru, b.LB)
	}
	var hinted []int
	for o := 0; o < owners; o++ {
		hinted = append(hinted, c.HintedCount(o))
	}
	return fmt.Sprintf("%s lru=%v hinted=%v unhinted=%d len=%d %+v", strings.Join(rows, " "), lru, hinted, c.unhinted, c.Len(), c.Stats())
}

func describeRef(r *refCache, owners int) string {
	var rows []string
	for _, b := range r.blocks {
		rows = append(rows, blockRow(b.lb, b.state, b.origin, b.hintDist, b.owner, b.uses, b.demanded || b.origin == OriginDemand, len(b.waiters)))
	}
	sort.Strings(rows)
	var hinted []int
	for o := 0; o < owners; o++ {
		hinted = append(hinted, r.hinted(o))
	}
	unhinted := 0
	for _, b := range r.blocks {
		if b.state == Valid && b.hintDist == NoHint {
			unhinted++
		}
	}
	return fmt.Sprintf("%s lru=%v hinted=%v unhinted=%d len=%d %+v", strings.Join(rows, " "), r.lru, hinted, unhinted, len(r.blocks), r.stats)
}

// modelOp is one operation of the random program. A wait carries the
// operation its waiter performs when woken — the re-entrant dispatch a
// completion callback does in internal/tip and internal/cluster.
type modelOp struct {
	kind   int
	lb     int64
	owner  int
	origin Origin
	dist   int64
	max    int
	then   *modelOp
}

const (
	opAcquire = iota
	opComplete
	opFail
	opWait
	opTouch
	opDemandWait
	opSetHint
	opPartitionCap
	numOps
)

// run applies op to c and appends what could be observed to log: whether the
// call panicked on a violated precondition, whether an acquire found a
// buffer, and every waiter wake-up with its nested operation, in order.
func (op *modelOp) run(c cacheOps, log *[]string) {
	note := func(format string, args ...any) { *log = append(*log, fmt.Sprintf(format, args...)) }
	defer func() {
		if recover() != nil {
			note("panic(%d %d)", op.kind, op.lb)
		}
	}()
	switch op.kind {
	case opAcquire:
		note("acquire(%d)=%v", op.lb, c.AcquireFor(op.owner, op.lb, op.origin, op.dist))
	case opComplete:
		c.Complete(op.lb)
	case opFail:
		c.Fail(op.lb)
	case opWait:
		c.Wait(op.lb, func(valid bool) {
			note("wake(%d,%v)", op.lb, valid)
			op.then.run(c, log)
		})
	case opTouch:
		c.Touch(op.lb)
	case opDemandWait:
		c.NoteDemandWait(op.lb)
	case opSetHint:
		c.SetHintFor(op.lb, op.owner, op.dist)
	}
}

// gone lists the blocks of before that are no longer resident: the victims of
// the operation in between (and its own block, if it failed it).
func gone(before []int64, resident func(lb int64) bool) []int64 {
	var out []int64
	for _, lb := range before {
		if !resident(lb) {
			out = append(out, lb)
		}
	}
	return out
}

// TestCacheMatchesModel drives the real cache and the naive model with the
// same seeded random programs — three owners, a small pool under constant
// eviction pressure, an accuracy function that changes under them — and
// demands identical observations after every operation, the identity of every
// evicted block among them. The model finds an owner's furthest-out block by
// walking the LRU order, so it pins the real cache's per-owner index to the
// same victim when several are equally far out: odd seeds draw hint distances
// from three values, and the run must have met such ties, with a Touch having
// reordered the tied blocks, every kind of SetHintFor move (hinted,
// unhinted, handed to another owner) on Valid and on InTransit blocks, and
// eviction scans that had to pass over a block pinned by Complete.
//
// Half the seeds run the cache with its test-only poison on (Cache.poison):
// a released block or waiter slice is poisoned instead of reused, so a use
// after release panics (a divergence from the model), and at the end every
// released block must still hold its poison, or something wrote to it after
// its release. The other half reuse them, as a run does.
func TestCacheMatchesModel(t *testing.T) {
	const (
		owners   = 3
		capacity = 8
		universe = 20 // logical blocks: more than fit, few enough to collide
		seeds    = 40
		opsEach  = 3000 // 40 x 3000 = 1.2e5 operations
	)
	seen := map[string]int{}
	ownTies, ownTiesTouched, pinSkips := 0, 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		acc := []float64{1, 1, 1}
		accOf := func(owner int) float64 { return acc[owner] }
		// Both caches read one set of partition caps, which opPartitionCap
		// rewrites between operations.
		parts := map[int]int{}
		fast := New(capacity)
		fast.poison = seed%4 >= 2
		fast.SetAccuracyFn(accOf)
		fast.SetPartitionFn(func(owner int) int { return parts[owner] })
		ref := &refCache{capacity: capacity, partitions: parts, acc: accOf, seen: seen}
		dists := int64(12)
		if seed%2 == 1 {
			dists = 3 // equal distances within one owner are the rule, not the exception
		}

		// pick returns a block in the state the operation needs three times in
		// four, and any block at all otherwise (the precondition-panic paths).
		needs := map[int]State{opAcquire: Absent, opTouch: Valid, opComplete: InTransit, opFail: InTransit,
			opWait: InTransit, opDemandWait: InTransit}
		pick := func(kind int) int64 {
			var fit []int64
			for lb := int64(0); lb < universe; lb++ {
				st := Absent
				if b := ref.get(lb); b != nil {
					st = b.state
				}
				if want, ok := needs[kind]; ok && st == want || kind == opSetHint && st != Absent {
					fit = append(fit, lb)
				}
			}
			if len(fit) == 0 || rng.Intn(4) == 0 {
				return rng.Int63n(universe)
			}
			return fit[rng.Intn(len(fit))]
		}
		randomOp := func(kind int) *modelOp {
			op := &modelOp{kind: kind, lb: pick(kind), owner: rng.Intn(owners), dist: NoHint}
			op.origin = Origin(rng.Intn(3))
			if op.origin == OriginHint || kind == opSetHint && rng.Intn(3) > 0 {
				op.dist = rng.Int63n(dists)
			}
			op.max = rng.Intn(capacity) - 1
			return op
		}
		for i := 0; i < opsEach; i++ {
			// Acquire, complete and touch dominate, as they do in a run.
			kind := []int{opAcquire, opAcquire, opAcquire, opComplete, opComplete, opTouch, opTouch,
				opFail, opWait, opWait, opDemandWait, opSetHint, opSetHint, opPartitionCap}[rng.Intn(14)]
			op := randomOp(kind)
			if kind == opWait {
				// The waiter touches its own block (TIP's consume), touches or
				// acquires another (the cluster's next queued part), or fails one.
				op.then = randomOp([]int{opTouch, opTouch, opAcquire, opFail}[rng.Intn(4)])
				if rng.Intn(2) == 0 {
					op.then.lb = op.lb
				}
			}
			if rng.Intn(16) == 0 {
				acc[rng.Intn(owners)] = float64(1+rng.Intn(8)) / 8
			}
			if kind == opPartitionCap {
				parts[op.owner] = max(op.max, 0)
			}
			var before []int64
			for _, b := range ref.blocks {
				before = append(before, b.lb)
			}
			var gotLog, wantLog []string
			op.run(realCache{fast}, &gotLog)
			op.run(ref, &wantLog)
			got := fmt.Sprint(gotLog, " gone=", gone(before, func(lb int64) bool { return fast.Get(lb) != nil }), " ", describeReal(fast, owners))
			want := fmt.Sprint(wantLog, " gone=", gone(before, func(lb int64) bool { return ref.get(lb) != nil }), " ", describeRef(ref, owners))
			if got != want {
				t.Fatalf("seed %d op %d (%+v) diverged:\n real %s\nmodel %s", seed, i, *op, got, want)
			}
		}
		for b := fast.free; fast.poison && b != nil; b = b.next {
			if got := *b; got.LB != -1 || got.state != Absent || !got.pinned || got.waiters != nil ||
				got.HintPos != 0 || got.Owner != 0 || got.Origin != 0 || got.uses != 0 || got.demanded || got.prev != nil {
				t.Fatalf("seed %d: a released block was written after its release: %+v", seed, got)
			}
		}
		fast.FlushAccounting()
		for _, b := range ref.blocks {
			ref.noteUnused(b)
		}
		if fast.Stats() != ref.stats {
			t.Fatalf("seed %d: after FlushAccounting real %+v, model %+v", seed, fast.Stats(), ref.stats)
		}
		ownTies, ownTiesTouched = ownTies+ref.ownTies, ownTiesTouched+ref.ownTiesTouched
		pinSkips += ref.pinSkips
	}
	t.Logf("own-furthest ties %d (%d reordered by a touch), pinned blocks passed over %d, SetHintFor moves %v", ownTies, ownTiesTouched, pinSkips, seen)
	if pinSkips < 20 {
		t.Errorf("eviction scans passed over a pinned block %d times, want >= 20", pinSkips)
	}
	if ownTies < 100 || ownTiesTouched < 20 {
		t.Errorf("evictOwnFurthest chose among equally distant blocks %d times, %d with a touch between them: too few to pin the tie-break", ownTies, ownTiesTouched)
	}
	for _, move := range []string{"hint", "unhint", "rehint", "to-other-owner"} {
		for _, st := range []State{Valid, InTransit} {
			if key := fmt.Sprint(move, "/", st); seen[key] < 100 {
				t.Errorf("SetHintFor move %s made %d times, want >= 100", key, seen[key])
			}
		}
	}
}
