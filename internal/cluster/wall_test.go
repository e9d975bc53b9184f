package cluster

import (
	"fmt"
	"testing"

	"spechint/internal/clients"
	"spechint/internal/fault"
)

// TestHintedOverloadWall: hinted overload, with and without a shard failover,
// over 60 seeds of two popularity skews. Several sessions waiting on one
// in-transit block used to crash the run: the first waiter's reply dispatched
// the next queued part inside cache.Complete, that part's fetch evicted the
// block, and the second waiter touched a block that was gone. Complete now
// pins the block until its last waiter has run. Every cell must finish without
// a panic, pass Result.Check, and account for every read as served or failed.
// The cells run with released messages poisoned (Cluster.poison): a message
// used after its release panics.
func TestHintedOverloadWall(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 4
	}
	for _, zipf := range []float64{1.2, 1.01} {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("zipf=%v/seed=%d", zipf, seed), func(t *testing.T) {
				t.Parallel()
				plain := wallRun(t, OverloadConfig(4), 128, zipf, seed)
				cfg := OverloadConfig(4)
				plan := fault.NewPlan(1)
				plan.DieShard, plan.DieShardAt = 1, plain.Elapsed/3
				cfg.Fault = plan
				wallRun(t, cfg, 128, zipf, seed)
			})
		}
	}
}

// TestOneShardOverload: hinted overload on a single shard at N=512. Population
// seed 1777 used to end with 14 sessions stranded: a demand retry completed
// its read, whose reply dispatched the next queued part inside the retry loop,
// and that part's misses overwrote a pending fetch the loop had yet to retry.
func TestOneShardOverload(t *testing.T) {
	for _, seed := range []int64{1, 1777} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			wallRun(t, OverloadConfig(1), 512, 1.2, seed)
		})
	}
}

// wallRun runs one cell of the wall on a fresh population of n clients, with
// released messages poisoned, and fails the test on a panic or a broken
// invariant.
func wallRun(t *testing.T, cfg Config, n int, zipf float64, seed int64) *Result {
	t.Helper()
	name := "plain"
	if cfg.Fault != nil {
		name = "shard 1 killed"
	}
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s: panic: %v", name, p)
		}
	}()
	pop, err := clients.Generate(clients.Config{
		N: n, Sessions: 8,
		Files: 96, FileBlocks: 96, BlockSize: 8192,
		SessionBlocks: 48, ReadBlocks: 8,
		ArrivalMean: 20_000_000, ThinkMean: 20_000,
		ZipfS: zipf, ZipfV: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, pop)
	if err != nil {
		t.Fatal(err)
	}
	c.poison = true
	res, err := c.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := res.Check(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := res.Reads + res.FailedReads; got != pop.TotalReads {
		t.Fatalf("%s: served %d + failed %d != %d reads", name, res.Reads, res.FailedReads, pop.TotalReads)
	}
	return res
}
