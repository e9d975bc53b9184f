package disk

import (
	"math/rand"
	"slices"
	"testing"

	"spechint/internal/sim"
)

// orderModel is the documented service order of one disk, written the naive
// way: a ride-along whose block is the one after the block just served, the
// first queued of such; then demand requests, in arrival order; then the
// queued prefetch with the lowest service time from the head; on a tie the
// nearest to the head, the first queued of equals; and a pick that needs
// positioning rewound to the first block of the queued run it belongs to.
type orderModel struct {
	cfg          Config
	demand, pref []modelReq
	busy         bool
	next, limit  int64 // the track-buffer window: where the head reads on, and how far
	served       []int // ids, in the order they entered service
}

type modelReq struct {
	id   int
	phys int64
	ride bool
}

// start serves the next request if the disk is idle.
func (m *orderModel) start() {
	if m.busy || len(m.demand)+len(m.pref) == 0 {
		return
	}
	q, best := &m.demand, 0
	if i := slices.IndexFunc(m.pref, func(r modelReq) bool { return r.ride && m.next >= 0 && r.phys == m.next }); i >= 0 {
		q, best = &m.pref, i
	} else if len(m.demand) == 0 {
		q = &m.pref
		hit := func(i int) bool { p := m.pref[i].phys; return m.next >= 0 && p >= m.next-1 && p < m.limit }
		cost := func(i int) sim.Time {
			if hit(i) {
				return m.cfg.TrackBufCycles * sim.Time(max(1, m.pref[i].phys-m.next+1))
			}
			return m.cfg.PositionCycles + m.cfg.TransferCycles
		}
		dist := func(i int) int64 { return max(m.pref[i].phys-m.next, m.next-m.pref[i].phys) }
		for i := range m.pref {
			if cost(i) < cost(best) || cost(i) == cost(best) && dist(i) < dist(best) {
				best = i
			}
		}
		for back := !hit(best); back; {
			i := slices.IndexFunc(m.pref, func(r modelReq) bool { return r.phys == m.pref[best].phys-1 })
			if back = i >= 0; back {
				best = i
			}
		}
	}
	r := (*q)[best]
	*q = slices.Delete(*q, best, best+1)
	m.busy, m.next, m.limit = true, r.phys+1, r.phys+1+int64(m.cfg.TrackBufBlocks)
	m.served = append(m.served, r.id)
}

// driveOrder runs ops against one disk of a real array and the model, and
// fails at the first request the two serve differently. Each op is two bytes:
// a kind and an argument. Kinds: submit a demand (0), a prefetch (1) or a
// ride-along prefetch (4) for a physical block in [0, 32) (few enough that
// runs, duplicates and track-buffer hits all occur), promote the argument-th
// request ever submitted (2; a no-op unless it is a queued prefetch), or
// complete the request in service (3).
func driveOrder(t *testing.T, ops []byte) {
	cfg := testConfig(1)
	clk := sim.NewQueue()
	a := mustNew(t, clk, cfg)
	m := &orderModel{cfg: cfg, next: -1}
	var reqs []*Request
	var served []int
	for i := 0; i+1 < len(ops); i += 2 {
		switch kind, arg := ops[i]%5, ops[i+1]; kind {
		case 0, 1, 4:
			id := len(reqs)
			r := &Request{Disk: 0, PhysBlock: int64(arg % 32), Pri: Priority(min(kind, 1)), RideAlong: kind == 4,
				Done: func(error) { served = append(served, id) }}
			reqs = append(reqs, r)
			if r.Pri == Demand {
				m.demand = append(m.demand, modelReq{id, r.PhysBlock, false})
			} else {
				m.pref = append(m.pref, modelReq{id, r.PhysBlock, r.RideAlong})
			}
			a.Submit(r)
			m.start()
		case 2:
			if len(reqs) == 0 {
				continue
			}
			id := int(arg) % len(reqs)
			a.Promote(reqs[id])
			if k := slices.IndexFunc(m.pref, func(q modelReq) bool { return q.id == id }); k >= 0 {
				m.demand = append(m.demand, m.pref[k])
				m.pref = slices.Delete(m.pref, k, k+1)
			}
		case 3:
			if clk.RunNext() {
				m.busy = false
				m.start()
			}
		}
		if !slices.Equal(served, m.served[:min(len(served), len(m.served))]) {
			t.Fatalf("op %d: served %v, the model %v", i/2, served, m.served)
		}
	}
	for clk.RunNext() {
		m.busy = false
		m.start()
	}
	if !slices.Equal(served, m.served) {
		t.Fatalf("drained: served %v, the model %v", served, m.served)
	}
}

// TestDiskOrderMatchesModel holds the array to the model on a few hundred
// random scripts in every test run; FuzzDiskOrder searches further.
func TestDiskOrderMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 300; n++ {
		ops := make([]byte, 2*rng.Intn(200))
		rng.Read(ops)
		driveOrder(t, ops)
	}
}

// FuzzDiskOrder holds the array's service order to the model's under random
// submits, promotions and completions.
func FuzzDiskOrder(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		driveOrder(t, ops)
	})
}
