package spechint_bench

import (
	"fmt"
	"runtime"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/clients"
	"spechint/internal/cluster"
	"spechint/internal/core"
	"spechint/internal/multi"
)

// gateInput builds one run and returns it unstarted: only the run is
// measured, not the build.
type gateInput func() (run func() (reads int64, err error))

// mallocs returns the process's heap allocations so far. The count is
// process-wide, so nothing else may run beside a measurement: the gates are
// not parallel.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// allocsPerRead runs an input of k reads and one of about 2k and returns the
// allocations the second made beyond the first, per extra read: what set-up
// and warm-up cost cancels out, and what is left is the steady-state cost of
// one read.
func allocsPerRead(t *testing.T, small, large gateInput) float64 {
	t.Helper()
	measure := func(in gateInput) (uint64, int64) {
		run := in()
		before := mallocs()
		reads, err := run()
		after := mallocs()
		if err != nil {
			t.Fatal(err)
		}
		return after - before, reads
	}
	m1, r1 := measure(small)
	m2, r2 := measure(large)
	if r2 <= r1 {
		t.Fatalf("the large input read %d times, the small one %d", r2, r1)
	}
	return (float64(m2) - float64(m1)) / float64(r2-r1)
}

// gateScale is test scale with MLShard's shards raised to 1 MB, so each open
// serves 32 batch reads of 32 KB: opens are rare, as in steady state.
func gateScale(epochs int) apps.Scale {
	s := apps.TestScale()
	s.MLShard.ShardSize = 1 << 20
	s.MLShard.Epochs = epochs
	return s
}

// gateCacheBlocks is small enough that the MLShard gates run with a full
// cache after the first few reads: every admit then reuses an evicted buffer.
const gateCacheBlocks = 16

// TestAllocsPerReadSolo holds a manually hinted MLShard read (core -> tip ->
// cache -> disk) to at most one heap allocation in steady state.
func TestAllocsPerReadSolo(t *testing.T) {
	solo := func(epochs int) gateInput {
		return func() func() (int64, error) {
			bundle, err := apps.Build(apps.MLShard, gateScale(epochs))
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig(core.ModeManual)
			cfg.TIP.CacheBlocks = gateCacheBlocks
			sys, err := core.New(cfg, bundle.Manual, bundle.FS)
			if err != nil {
				t.Fatal(err)
			}
			return func() (int64, error) {
				st, err := sys.Run()
				if err != nil {
					return 0, err
				}
				return st.ReadCalls, nil
			}
		}
	}
	got := allocsPerRead(t, solo(2), solo(4))
	t.Logf("solo manual MLShard: %.2f allocs/read", got)
	if got > 1 {
		t.Errorf("a steady-state solo read allocates %.2f heap objects, want <= 1", got)
	}
}

// TestAllocsPerReadGroup is the same gate for two such processes sharing one
// substrate in a multi group.
func TestAllocsPerReadGroup(t *testing.T) {
	group := func(epochs int) gateInput {
		return func() func() (int64, error) {
			cfg := multi.DefaultConfig()
			cfg.TIP.CacheBlocks = gateCacheBlocks
			spec := multi.ProcSpec{App: apps.MLShard, Mode: core.ModeManual}
			g, err := multi.NewGroup(cfg, gateScale(epochs), []multi.ProcSpec{spec, spec})
			if err != nil {
				t.Fatal(err)
			}
			return func() (int64, error) {
				res, err := g.Run()
				if err != nil {
					return 0, err
				}
				var reads int64
				for _, p := range res.Procs {
					reads += p.Stats.ReadCalls
				}
				return reads, nil
			}
		}
	}
	got := allocsPerRead(t, group(2), group(4))
	t.Logf("group of two manual MLShard: %.2f allocs/read", got)
	if got > 1 {
		t.Errorf("a steady-state group read allocates %.2f heap objects, want <= 1", got)
	}
}

// TestAllocsPerReadCluster holds a cluster client read (send -> admit ->
// service -> reply, with its session's hint and close messages) to at most
// one heap allocation in steady state, in each of BenchmarkCluster's arms.
func TestAllocsPerReadCluster(t *testing.T) {
	for _, arm := range []string{"capacity", "nohints", "overload"} {
		t.Run(arm, func(t *testing.T) {
			input := func(sessions int) gateInput {
				return func() func() (int64, error) {
					c, err := cluster.New(clusterArm(arm, 48, sessions))
					if err != nil {
						t.Fatal(err)
					}
					return func() (int64, error) {
						res, err := c.Run()
						if err != nil {
							return 0, err
						}
						return res.Reads, res.Check()
					}
				}
			}
			got := allocsPerRead(t, input(8), input(16))
			t.Logf("cluster %s N=48: %.2f allocs/read", arm, got)
			if got > 1 {
				t.Errorf("a steady-state cluster read allocates %.2f heap objects, want <= 1", got)
			}
		})
	}
}

// clusterArm is one BenchmarkCluster cell: n clients of the given number of
// sessions, hinted at capacity ("capacity"), unhinted at capacity
// ("nohints"), or unhinted at four times the arrival rate with the overload
// layer armed ("overload").
func clusterArm(arm string, n, sessions int) (cluster.Config, *clients.Population) {
	cfg, arrival := cluster.DefaultConfig(4), int64(80_000_000)
	switch arm {
	case "nohints":
		cfg.Hints = false
	case "overload":
		cfg, arrival = cluster.OverloadConfig(4), 20_000_000
		cfg.Hints = false
	}
	pop, err := clients.Generate(clients.Config{
		N: n, Sessions: sessions,
		Files: 96, FileBlocks: 96, BlockSize: 8192,
		SessionBlocks: 48, ReadBlocks: 8,
		ArrivalMean: arrival, ThinkMean: 20_000,
		ZipfS: 1.2, ZipfV: 1, Seed: 1778,
	})
	if err != nil {
		panic(fmt.Sprintf("clusterArm %s: %v", arm, err))
	}
	return cfg, pop
}
