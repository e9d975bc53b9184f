package cluster

import (
	"encoding/json"
	"reflect"
	"testing"

	"spechint/internal/clients"
	"spechint/internal/disk"
	"spechint/internal/obs"
)

// testPop generates a small but non-trivial population: enough concurrency
// to exercise session queueing, cross-shard reads and cache pressure.
func testPop(t *testing.T) *clients.Population {
	t.Helper()
	pop, err := clients.Generate(clients.Config{
		N: 8, Sessions: 2,
		Files: 16, FileBlocks: 64, BlockSize: 8192,
		SessionBlocks: 16, ReadBlocks: 4,
		ArrivalMean: 50_000_000, ThinkMean: 500_000,
		ZipfS: 1.2, ZipfV: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func runCluster(t *testing.T, shards int, hints bool, tr *obs.Trace) *Result {
	t.Helper()
	cfg := DefaultConfig(shards)
	cfg.Hints = hints
	cfg.Obs = tr
	c, err := New(cfg, testPop(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterDeterministic: two identical runs produce byte-identical
// results, including every latency sample and every layer's counters.
func TestClusterDeterministic(t *testing.T) {
	a := runCluster(t, 2, true, nil)
	b := runCluster(t, 2, true, nil)
	if !reflect.DeepEqual(a, b) {
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		t.Fatalf("identical configs diverged:\n%s\nvs\n%s", ja, jb)
	}
}

// TestClusterShardCells runs the shard-count cells in parallel (each cell is
// an independent simulation on its own clock) and checks the invariants every
// cell must hold: all reads complete, no errors, and each shard's stall
// buckets sum exactly to the elapsed time.
func TestClusterShardCells(t *testing.T) {
	pop := testPop(t)
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(map[int]string{1: "1shard", 2: "2shards", 4: "4shards"}[shards], func(t *testing.T) {
			t.Parallel()
			res := runCluster(t, shards, true, nil)
			if res.Reads != pop.TotalReads {
				t.Errorf("completed %d reads, want %d", res.Reads, pop.TotalReads)
			}
			if int64(len(res.Latencies)) != res.Reads {
				t.Errorf("%d latency samples for %d reads", len(res.Latencies), res.Reads)
			}
			if len(res.Shards) != shards {
				t.Fatalf("%d shard results, want %d", len(res.Shards), shards)
			}
			var parts int64
			for _, s := range res.Shards {
				if got := s.Buckets.total(); got != int64(res.Elapsed) {
					t.Errorf("shard %d buckets sum to %d, elapsed %d", s.ID, got, res.Elapsed)
				}
				if s.Stats.ReadErrors != 0 {
					t.Errorf("shard %d saw %d read errors", s.ID, s.Stats.ReadErrors)
				}
				parts += s.Stats.ReadParts
			}
			if parts < res.Reads {
				t.Errorf("shards served %d parts < %d reads", parts, res.Reads)
			}
		})
	}
}

// TestClusterHintsFlow: with hints on, a healthy fraction of read parts
// arrives covered and the hinted stall bucket is exercised; with hints off,
// nothing is ever covered.
func TestClusterHintsFlow(t *testing.T) {
	hinted := runCluster(t, 2, true, nil)
	var hp, batches, hintedCycles int64
	for _, s := range hinted.Shards {
		hp += s.Stats.HintedParts
		batches += s.Stats.Batches
		hintedCycles += s.Buckets.HintedService
	}
	if hp == 0 {
		t.Error("hints on: no read part ever arrived covered")
	}
	if batches == 0 {
		t.Error("hints on: ingestion queue never flushed")
	}
	if hintedCycles == 0 {
		t.Error("hints on: HintedService bucket never charged")
	}

	base := runCluster(t, 2, false, nil)
	for _, s := range base.Shards {
		if s.Stats.HintedParts != 0 || s.Stats.HintMsgs != 0 {
			t.Errorf("hints off: shard %d saw hint traffic %+v", s.ID, s.Stats)
		}
		if s.Buckets.HintedService != 0 {
			t.Errorf("hints off: shard %d charged HintedService", s.ID)
		}
	}
	if base.Reads != hinted.Reads {
		t.Errorf("hinted and baseline completed different read counts: %d vs %d", hinted.Reads, base.Reads)
	}
}

// TestClusterObs: every shard lands its lanes and gauges on the shared trace
// under its own prefix.
func TestClusterObs(t *testing.T) {
	tr := obs.New(obs.Config{})
	runCluster(t, 2, true, tr)
	prefixed := map[string]bool{}
	for _, e := range tr.Events() {
		prefixed[e.Lane] = true
	}
	if !prefixed["s0:tip"] || !prefixed["s1:tip"] {
		t.Errorf("missing per-shard tip lanes; saw %v", prefixed)
	}
	var g0, g1 bool
	for _, n := range tr.GaugeNames() {
		if n == "s0:ingest_queue_depth" {
			g0 = true
		}
		if n == "s1:active_sessions" {
			g1 = true
		}
	}
	if !g0 || !g1 {
		t.Errorf("missing per-shard gauges; have %v", tr.GaugeNames())
	}
}

// TestShardQueueDepthCountsInService: a shard's diskN_queue_depth gauge means
// what a solo run's does (disk.Array.Outstanding: queued plus in service), so
// a disk serving one request with none waiting reports 1, not 0.
func TestShardQueueDepthCountsInService(t *testing.T) {
	tr := obs.New(obs.Config{})
	cfg := DefaultConfig(1)
	cfg.Obs = tr
	c, err := New(cfg, testPop(t))
	if err != nil {
		t.Fatal(err)
	}
	arr := c.shards[0].arr
	arr.Submit(&disk.Request{Disk: 0, PhysBlock: 0, Pri: disk.Demand})
	if !arr.Busy(0) || arr.QueueDepth(0) != 0 {
		t.Fatalf("want one request in service and none queued; busy %v, queued %d", arr.Busy(0), arr.QueueDepth(0))
	}
	tr.Tick(0)
	for i, name := range tr.GaugeNames() {
		if name == "s0:disk0_queue_depth" {
			if got := tr.Points()[0].Values[i]; got != 1 {
				t.Errorf("%s = %v, want 1", name, got)
			}
			return
		}
	}
	t.Fatalf("no s0:disk0_queue_depth gauge; have %v", tr.GaugeNames())
}

// TestClusterSessionLifecycle: sessions open and close on every shard they
// touch, and TIP's client-slot reuse keeps the per-shard client table at the
// concurrent peak, not the session total.
func TestClusterSessionLifecycle(t *testing.T) {
	res := runCluster(t, 2, true, nil)
	var opened int64
	for _, s := range res.Shards {
		opened += s.Stats.SessionsOpen
		if s.Stats.PeakSessions > int(s.Stats.SessionsOpen) {
			t.Errorf("shard %d peak %d exceeds opened %d", s.ID, s.Stats.PeakSessions, s.Stats.SessionsOpen)
		}
		if int64(s.Stats.PeakSessions) == s.Stats.SessionsOpen && s.Stats.SessionsOpen > 8 {
			t.Errorf("shard %d never closed a session (peak == opened == %d)", s.ID, s.Stats.SessionsOpen)
		}
	}
	if opened == 0 {
		t.Fatal("no sessions ever opened")
	}
}
