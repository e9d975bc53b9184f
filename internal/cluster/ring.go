// Package cluster is the sharded TIP service: the single-machine cache
// manager of internal/tip turned into a simulated multi-node service. The
// in-process coupling of client and cache manager is split at an explicit
// message boundary — clients issue Open/Read/Hint request messages that
// cross a virtual-time network, and each shard is a self-contained server
// with its own disk array, cache partition and TIP manager (reusing
// internal/disk, internal/cache and internal/tip unchanged). Block placement
// is a deterministic consistent-hash ring over placement groups; hints are
// routed per shard through batched, coalescing ingestion queues; and the
// whole cluster is driven by a synthetic client population
// (internal/clients) on one shared virtual clock, so every run is
// reproducible cycle-for-cycle.
package cluster

import (
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring mapping placement groups to shards.
// Each shard contributes vnodes points, hashed deterministically from
// (shard, vnode), so the placement is identical across runs and across
// machines, and growing the ring from N to N+1 shards moves only the keys
// whose successor point changed — about 1/(N+1) of them.
type Ring struct {
	points []ringPoint // sorted by (hash, shard)
	dead   []bool      // per-shard liveness; dead shards' points are skipped
	live   int         // count of live shards
}

type ringPoint struct {
	h     uint64
	shard int
}

// newRing builds the ring for the given shard count.
func newRing(shards, vnodes int) (*Ring, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: ring needs >= 1 shard, got %d", shards)
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("cluster: ring needs >= 1 vnode per shard, got %d", vnodes)
	}
	r := &Ring{
		points: make([]ringPoint, 0, shards*vnodes),
		dead:   make([]bool, shards), live: shards,
	}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{pointHash(s, v), s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].shard < r.points[j].shard // hash-collision tiebreak
	})
	return r, nil
}

// markDead removes shard s from the placement: its ring points are skipped,
// so its keys fall through to the next live point clockwise — every other
// shard's keys stay exactly where they were (the failover analogue of the
// rebalance bound). Marking the last live shard dead panics: a cluster with
// no servers has no meaningful placement.
func (r *Ring) markDead(s int) {
	if r.dead[s] {
		return
	}
	if r.live == 1 {
		panic("cluster: marking the last live shard dead")
	}
	r.dead[s] = true
	r.live--
}

// lookup returns the shard owning hash h: the first ring point clockwise of
// h whose shard is alive, wrapping at the top of the circle.
func (r *Ring) lookup(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	for range r.points {
		if i == len(r.points) {
			i = 0
		}
		if !r.dead[r.points[i].shard] {
			return r.points[i].shard
		}
		i++
	}
	panic("cluster: lookup on a ring with no live shards")
}

// owner returns the shard owning placement group `group` of corpus file
// `file`.
func (r *Ring) owner(file int, group int64) int {
	return r.lookup(groupKey(file, group))
}

// pointHash places vnode v of shard s on the circle. Both hashes below use
// the SplitMix64 finalizer: full-avalanche mixing keeps the ring's arc
// lengths near-uniform (a weaker hash visibly skews per-shard load even at
// 64 vnodes), and it is pinned here so placement can never drift with a
// library change.
func pointHash(s, v int) uint64 {
	return mix64(uint64(s)*0xD1B54A32D192ED03 + uint64(v)*0x9E3779B97F4A7C15)
}

// groupKey hashes a (file, placement group) pair onto the ring circle, so
// consecutive groups of one file land independently around it.
func groupKey(file int, group int64) uint64 {
	return mix64(uint64(file)*0x9E3779B97F4A7C15 ^ uint64(group))
}

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
