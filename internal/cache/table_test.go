package cache

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The block table against a plain map: the same answers from get, n and each
// (which must also visit in ascending block order) under random set and del,
// with block numbers dense near zero, spread up to 2^20, and sparse (pages far
// apart, most never allocated).
func TestBlockTableMatchesMap(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab blockTable
		ref := map[int64]*Block{}
		draw := func() int64 {
			switch rng.Intn(4) {
			case 0:
				return rng.Int63n(64) // dense: collisions, re-use of a freed slot
			case 1:
				return rng.Int63n(1 << 20)
			case 2:
				return 1<<20 - 1 - rng.Int63n(3)
			default:
				return rng.Int63n(8) << 17 // sparse: pages far apart, many never allocated
			}
		}
		for op := 0; op < 20_000; op++ {
			lb := draw()
			switch {
			case ref[lb] == nil:
				b := &Block{LB: lb}
				tab.set(lb, b)
				ref[lb] = b
			case rng.Intn(2) == 0:
				tab.del(lb)
				delete(ref, lb)
			}
			probe := draw()
			if tab.get(probe) != ref[probe] || tab.get(lb) != ref[lb] {
				t.Fatalf("seed %d op %d: get(%d) or get(%d) disagrees with the map", seed, op, probe, lb)
			}
			if tab.n != len(ref) {
				t.Fatalf("seed %d op %d: n = %d, map holds %d", seed, op, tab.n, len(ref))
			}
			if op%500 == 0 {
				var got, want []int64
				tab.each(func(b *Block) {
					if b != ref[b.LB] {
						t.Fatalf("seed %d op %d: each visited a block the map does not hold at %d", seed, op, b.LB)
					}
					got = append(got, b.LB)
				})
				for k := range ref {
					want = append(want, k)
				}
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: each visited %v, map holds %v", seed, op, got, want)
				}
			}
		}
		for _, lb := range []int64{-1, -512, -1 << 40, 1 << 21, 1 << 40, 1<<63 - 1} {
			if tab.get(lb) != nil {
				t.Fatalf("get(%d) of a number never entered is not nil", lb)
			}
		}
		if pages := (1<<20)>>pageShift + 1; len(tab.pages) > pages {
			t.Fatalf("%d page slots for block numbers below 2^20+512, want <= %d", len(tab.pages), pages)
		}
	}
}

// A negative block number is a caller's bug: AcquireFor says so before it
// evicts anything or touches the table.
func TestAcquireNegativeBlockPanics(t *testing.T) {
	c := New(2)
	c.Acquire(1, OriginDemand, NoHint)
	c.Complete(1)
	c.Acquire(2, OriginDemand, NoHint)
	c.Complete(2)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "negative block number -7") {
			t.Fatalf("panic %q, want one naming the negative block number", msg)
		}
		if c.Len() != 2 || c.Get(1) == nil || c.Get(2) == nil || len(c.blocks.pages) != 1 {
			t.Fatalf("the refused Acquire changed the cache: len %d, %d pages", c.Len(), len(c.blocks.pages))
		}
		if c.Get(-7) != nil || c.Get(-1) != nil {
			t.Fatal("Get of a negative block number is not nil")
		}
	}()
	c.Acquire(-7, OriginDemand, NoHint)
	t.Fatal("Acquire(-7) returned")
}
