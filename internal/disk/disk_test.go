package disk

import (
	"testing"
	"testing/quick"

	"spechint/internal/sim"
)

func testConfig(n int) Config {
	return Config{
		NumDisks:       n,
		BlockSize:      8192,
		StripeUnit:     65536,
		PositionCycles: 1000,
		TransferCycles: 100,
		TrackBufCycles: 10,
		TrackBufBlocks: 8,
		DelayFactor:    1,
	}
}

func mustNew(t *testing.T, clk *sim.Queue, cfg Config) *Array {
	t.Helper()
	a, err := New(clk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero disks", func(c *Config) { c.NumDisks = 0 }},
		{"zero block size", func(c *Config) { c.BlockSize = 0 }},
		{"stripe not multiple", func(c *Config) { c.StripeUnit = 12345 }},
		{"zero stripe", func(c *Config) { c.StripeUnit = 0 }},
		{"zero delay factor", func(c *Config) { c.DelayFactor = 0 }},
		{"zero transfer", func(c *Config) { c.TransferCycles = 0 }},
		{"negative position", func(c *Config) { c.PositionCycles = -1 }},
	}
	for _, tc := range cases {
		cfg := testConfig(4)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
	if err := testConfig(4).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestStripingMap(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(4))
	unit := a.BlocksPerStripeUnit() // 8 blocks per 64 KB unit
	if unit != 8 {
		t.Fatalf("BlocksPerStripeUnit = %d, want 8", unit)
	}
	// First 8 blocks on disk 0, next 8 on disk 1, ... wrapping to disk 0 at
	// block 32 with physical offset 8.
	cases := []struct {
		logical int64
		disk    int
		phys    int64
	}{
		{0, 0, 0}, {7, 0, 7}, {8, 1, 0}, {15, 1, 7},
		{16, 2, 0}, {24, 3, 0}, {31, 3, 7}, {32, 0, 8}, {33, 0, 9},
		{63, 3, 15}, {64, 0, 16},
	}
	for _, c := range cases {
		d, p := a.Map(c.logical)
		if d != c.disk || p != c.phys {
			t.Errorf("Map(%d) = (%d,%d), want (%d,%d)", c.logical, d, p, c.disk, c.phys)
		}
		if got := a.DiskOf(c.logical); got != c.disk {
			t.Errorf("DiskOf(%d) = %d, want %d", c.logical, got, c.disk)
		}
	}
}

func TestStripingMapIsInjective(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(3))
	seen := make(map[[2]int64]int64)
	for lb := int64(0); lb < 1000; lb++ {
		d, p := a.Map(lb)
		key := [2]int64{int64(d), p}
		if prev, ok := seen[key]; ok {
			t.Fatalf("blocks %d and %d both map to disk %d phys %d", prev, lb, d, p)
		}
		seen[key] = lb
	}
}

func TestSingleRequestTiming(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	done := sim.Time(-1)
	a.Submit(&Request{Disk: 0, PhysBlock: 100, Pri: Demand, Done: func(error) { done = clk.Now() }})
	clk.Drain()
	if done != 1100 { // position + transfer
		t.Fatalf("completion at %d, want 1100", done)
	}
}

func TestTrackBufferHit(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	var times []sim.Time
	record := func(error) { times = append(times, clk.Now()) }
	a.Submit(&Request{Disk: 0, PhysBlock: 10, Pri: Demand, Done: record})
	clk.Drain()
	// Sequential next block: track buffer, 10 cycles.
	a.Submit(&Request{Disk: 0, PhysBlock: 11, Pri: Demand, Done: record})
	clk.Drain()
	// Far block: full access again.
	a.Submit(&Request{Disk: 0, PhysBlock: 1000, Pri: Demand, Done: record})
	clk.Drain()
	if times[0] != 1100 || times[1] != 1110 || times[2] != 2210 {
		t.Fatalf("completions %v, want [1100 1110 2210]", times)
	}
	if a.Stats().TrackBufHits != 1 {
		t.Fatalf("TrackBufHits = %d, want 1", a.Stats().TrackBufHits)
	}
}

func TestTrackBufferRereadSameBlock(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	a.Submit(&Request{Disk: 0, PhysBlock: 10, Pri: Demand})
	clk.Drain()
	// Re-reading the same block hits the buffer (PhysBlock >= nextSeq-1).
	a.Submit(&Request{Disk: 0, PhysBlock: 10, Pri: Demand})
	clk.Drain()
	if a.Stats().TrackBufHits != 1 {
		t.Fatalf("TrackBufHits = %d, want 1", a.Stats().TrackBufHits)
	}
}

func TestDemandPriorityOverPrefetch(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	var order []string
	// First request occupies the disk.
	a.Submit(&Request{Disk: 0, PhysBlock: 0, Pri: Prefetch, Done: func(error) { order = append(order, "p0") }})
	// While busy, queue a prefetch then a demand; demand must be served first.
	a.Submit(&Request{Disk: 0, PhysBlock: 500, Pri: Prefetch, Done: func(error) { order = append(order, "p1") }})
	a.Submit(&Request{Disk: 0, PhysBlock: 900, Pri: Demand, Done: func(error) { order = append(order, "d") }})
	clk.Drain()
	want := []string{"p0", "d", "p1"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

func TestInServicePrefetchNotPreempted(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	var demandDone sim.Time
	a.Submit(&Request{Disk: 0, PhysBlock: 0, Pri: Prefetch})
	// Demand arrives mid-service; it must wait the full prefetch service time.
	clk.Advance(50)
	a.Submit(&Request{Disk: 0, PhysBlock: 2000, Pri: Demand, Done: func(error) { demandDone = clk.Now() }})
	clk.Drain()
	if demandDone != 1100+1100 {
		t.Fatalf("demand done at %d, want 2200", demandDone)
	}
}

func TestMaxPrefetchPerDisk(t *testing.T) {
	clk := sim.NewQueue()
	cfg := testConfig(1)
	cfg.MaxPrefetchPerDisk = 1
	a := mustNew(t, clk, cfg)
	if !a.Submit(&Request{Disk: 0, PhysBlock: 0, Pri: Prefetch}) {
		t.Fatal("first prefetch rejected")
	}
	if a.Submit(&Request{Disk: 0, PhysBlock: 8, Pri: Prefetch}) {
		t.Fatal("second outstanding prefetch accepted, want rejected")
	}
	if a.Stats().RejectedReqs != 1 {
		t.Fatalf("RejectedReqs = %d, want 1", a.Stats().RejectedReqs)
	}
	// Demand is unaffected by the bound.
	if !a.Submit(&Request{Disk: 0, PhysBlock: 16, Pri: Demand}) {
		t.Fatal("demand rejected by prefetch bound")
	}
	clk.Drain()
	// After completion the bound frees up.
	if !a.Submit(&Request{Disk: 0, PhysBlock: 24, Pri: Prefetch}) {
		t.Fatal("prefetch rejected after previous completed")
	}
}

func TestDelayFactorDelaysNotification(t *testing.T) {
	clk := sim.NewQueue()
	cfg := testConfig(1)
	cfg.DelayFactor = 3
	a := mustNew(t, clk, cfg)
	var done sim.Time
	a.Submit(&Request{Disk: 0, PhysBlock: 0, Pri: Demand, Done: func(error) { done = clk.Now() }})
	clk.Drain()
	if done != 3300 {
		t.Fatalf("notification at %d, want 3300", done)
	}
}

func TestOnIdleCallback(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(2))
	var idled []int
	a.OnIdle = func(d int) { idled = append(idled, d) }
	a.Submit(&Request{Disk: 1, PhysBlock: 0, Pri: Demand})
	clk.Drain()
	if len(idled) != 1 || idled[0] != 1 {
		t.Fatalf("OnIdle calls = %v, want [1]", idled)
	}
}

func TestParallelDisksOverlap(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(4))
	var last sim.Time
	for d := 0; d < 4; d++ {
		a.Submit(&Request{Disk: d, PhysBlock: 0, Pri: Demand, Done: func(error) { last = clk.Now() }})
	}
	clk.Drain()
	if last != 1100 {
		t.Fatalf("four parallel reads finished at %d, want 1100 (full overlap)", last)
	}
}

func TestDemandWaitAccounting(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	a.Submit(&Request{Disk: 0, PhysBlock: 0, Pri: Demand})
	a.Submit(&Request{Disk: 0, PhysBlock: 5000, Pri: Demand})
	clk.Drain()
	st := a.Stats()
	if st.DemandWait != 1100 {
		t.Fatalf("DemandWait = %d, want 1100", st.DemandWait)
	}
	if st.DemandService != 2200 {
		t.Fatalf("DemandService = %d, want 2200", st.DemandService)
	}
}

func TestQueueDepthAndBusy(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	a.Submit(&Request{Disk: 0, PhysBlock: 0, Pri: Demand})
	a.Submit(&Request{Disk: 0, PhysBlock: 5000, Pri: Demand})
	a.Submit(&Request{Disk: 0, PhysBlock: 9000, Pri: Prefetch})
	if !a.Busy(0) {
		t.Fatal("disk not busy after submit")
	}
	if d := a.QueueDepth(0); d != 2 {
		t.Fatalf("QueueDepth = %d, want 2", d)
	}
	clk.Drain()
	if a.Busy(0) || a.QueueDepth(0) != 0 {
		t.Fatal("disk not idle after drain")
	}
}

// Property: every submitted demand request completes exactly once, regardless
// of interleaving with prefetches, and the mapping covers all disks.
func TestPropertyAllRequestsComplete(t *testing.T) {
	f := func(blocks []uint16, prefMask uint32) bool {
		if len(blocks) > 24 {
			blocks = blocks[:24]
		}
		clk := sim.NewQueue()
		a, err := New(clk, testConfig(3))
		if err != nil {
			return false
		}
		completions := 0
		for i, b := range blocks {
			pri := Demand
			if prefMask&(1<<uint(i)) != 0 {
				pri = Prefetch
			}
			d, p := a.Map(int64(b))
			a.Submit(&Request{Disk: d, PhysBlock: p, Pri: pri, Done: func(error) { completions++ }})
		}
		clk.Drain()
		return completions == len(blocks)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrackBufferSkipCostsStreamTime(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	a.Submit(&Request{Disk: 0, PhysBlock: 10, Pri: Demand})
	clk.Drain()
	// Skip 3 blocks ahead (last served 10, next 14): still in the window,
	// but the drive streams through blocks 11-13 first: cost 4 x 10 cycles.
	var done sim.Time
	start := clk.Now()
	a.Submit(&Request{Disk: 0, PhysBlock: 14, Pri: Demand, Done: func(error) { done = clk.Now() }})
	clk.Drain()
	if done-start != 40 {
		t.Fatalf("skip-4 service = %d, want 40", done-start)
	}
}

func TestElevatorPicksCheapestPrefetch(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	var order []int64
	rec := func(b int64) func(error) { return func(error) { order = append(order, b) } }
	// Occupy the disk, then queue prefetches far and near.
	a.Submit(&Request{Disk: 0, PhysBlock: 10, Pri: Prefetch, Done: rec(10)})
	a.Submit(&Request{Disk: 0, PhysBlock: 900, Pri: Prefetch, Done: rec(900)})
	a.Submit(&Request{Disk: 0, PhysBlock: 11, Pri: Prefetch, Done: rec(11)})
	clk.Drain()
	if len(order) != 3 || order[1] != 11 {
		t.Fatalf("service order %v, want the sequential block 11 second", order)
	}
}

func TestPromoteMovesQueuedPrefetchAheadOfOthers(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	var order []int64
	rec := func(b int64) func(error) { return func(error) { order = append(order, b) } }
	a.Submit(&Request{Disk: 0, PhysBlock: 0, Pri: Prefetch, Done: rec(0)})
	a.Submit(&Request{Disk: 0, PhysBlock: 5, Pri: Prefetch, Done: rec(5)})
	wanted := &Request{Disk: 0, PhysBlock: 900, Pri: Prefetch, Done: rec(900)}
	a.Submit(wanted)
	// Without promotion the elevator would serve 5 before 900.
	a.Promote(wanted)
	clk.Drain()
	if len(order) != 3 || order[1] != 900 {
		t.Fatalf("service order %v, want promoted 900 second", order)
	}
}

func TestPromoteInServiceOrUnknownIsNoop(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	r := &Request{Disk: 0, PhysBlock: 0, Pri: Prefetch}
	a.Submit(r)
	a.Promote(r)                                // already in service
	a.Promote(&Request{Disk: 0, PhysBlock: 7})  // never submitted
	a.Promote(&Request{Disk: 99, PhysBlock: 7}) // bad disk
	clk.Drain()
}

func TestPromotePreservesQueueIntegrity(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	served := 0
	var reqs []*Request
	a.Submit(&Request{Disk: 0, PhysBlock: 0, Pri: Prefetch, Done: func(error) { served++ }})
	for i := 1; i <= 5; i++ {
		r := &Request{Disk: 0, PhysBlock: int64(i * 100), Pri: Prefetch, Done: func(error) { served++ }}
		a.Submit(r)
		reqs = append(reqs, r)
	}
	// Promote the tail, then the head of the prefetch queue.
	a.Promote(reqs[4])
	a.Promote(reqs[0])
	clk.Drain()
	if served != 6 {
		t.Fatalf("served %d of 6 after promotions", served)
	}
}

// BlocksPerStripeUnit returns the number of file-system blocks per striping unit.
func (a *Array) BlocksPerStripeUnit() int64 { return a.unit }
