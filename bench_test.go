// Package spechint_bench times the experiments as Go benchmarks:
// BenchmarkExperiment/<name> runs every entry of bench.Registry — the same
// functions `tipbench -exp <name>` calls — at test scale, so
// `go test -bench=. -benchmem` exercises the full system and reports each
// experiment's host cost. The tables themselves are printed by cmd/tipbench.
package spechint_bench

import (
	"fmt"
	"runtime"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/bench"
	"spechint/internal/cluster"
	"spechint/internal/core"
	"spechint/internal/spechint"
	"spechint/internal/tip"
)

func BenchmarkExperiment(b *testing.B) {
	for _, name := range bench.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunByName(name, apps.TestScale()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCluster runs the populations bench/perf's cluster_overload draws —
// hinted at capacity, unhinted at capacity, unhinted at four times the
// arrival rate — at three sizes, and reports what one client read costs the
// host (us/read, and allocs/read: heap objects, building the cluster
// included) and the hint pumps (tip.PumpWork per read: block-steps, probes,
// client visits). The pump counts are deterministic, and they are what the
// host time grows with.
func BenchmarkCluster(b *testing.B) {
	for _, arm := range []string{"capacity", "nohints", "overload"} {
		for _, n := range []int{48, 128, 256} {
			b.Run(fmt.Sprintf("%s/N=%d", arm, n), func(b *testing.B) {
				cfg, pop := clusterArm(arm, n, 8)
				var reads int64
				var work tip.PumpWork
				b.ResetTimer()
				before := mallocs()
				for i := 0; i < b.N; i++ {
					c, err := cluster.New(cfg, pop)
					if err != nil {
						b.Fatal(err)
					}
					res, err := c.Run()
					if err != nil {
						b.Fatal(err)
					}
					reads, work = reads+res.Reads, c.PumpWork()
				}
				allocs := mallocs() - before
				r := float64(reads) / float64(b.N) // work is one run's
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(reads), "us/read")
				b.ReportMetric(float64(allocs)/float64(reads), "allocs/read")
				b.ReportMetric(float64(work.Steps)/r, "steps/read")
				b.ReportMetric(float64(work.Probes)/r, "probes/read")
				b.ReportMetric(float64(work.Visits)/r, "visits/read")
			})
		}
	}
}

// BenchmarkSoloHinted is the same report for one hinting process: the two
// solo cells that keep the deepest hint window open — MLShard read in 128 KB
// batches with manual hints, Gnuld speculating — on one disk and on four.
// probes/read is the part of steps/read that went on to ask the disk side
// about the block; with every disk at its depth bound the pump stops asking.
// allocs/read counts building the System too.
func BenchmarkSoloHinted(b *testing.B) {
	ml := apps.SweepScale()
	ml.MLShard.ReadSize = 128 << 10
	for _, cell := range []struct {
		name  string
		app   apps.App
		mode  core.Mode
		scale apps.Scale
	}{
		{"MLShard128KB/manual", apps.MLShard, core.ModeManual, ml},
		{"Gnuld/speculating", apps.Gnuld, core.ModeSpeculating, apps.SweepScale()},
	} {
		for _, disks := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/disks=%d", cell.name, disks), func(b *testing.B) {
				bundle, err := apps.Build(cell.app, cell.scale)
				if err != nil {
					b.Fatal(err)
				}
				prog := bundle.Manual
				if cell.mode == core.ModeSpeculating {
					prog = bundle.Transformed
				}
				cfg := core.DefaultConfig(cell.mode)
				cfg.Disk = core.TestbedDisk(disks)
				var reads, steps, probes int64
				b.ResetTimer()
				before := mallocs()
				for i := 0; i < b.N; i++ {
					sys, err := core.New(cfg, prog, bundle.FS)
					if err != nil {
						b.Fatal(err)
					}
					st, err := sys.Run()
					if err != nil {
						b.Fatal(err)
					}
					w := sys.TIP().PumpWork()
					reads, steps, probes = reads+st.ReadCalls, steps+w.Steps, probes+w.Probes
				}
				allocs := mallocs() - before
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(reads), "us/read")
				b.ReportMetric(float64(allocs)/float64(reads), "allocs/read")
				b.ReportMetric(float64(steps)/float64(reads), "steps/read")
				b.ReportMetric(float64(probes)/float64(reads), "probes/read")
			})
		}
	}
}

// BenchmarkTransform measures SpecHint tool throughput on the largest app.
func BenchmarkTransform(b *testing.B) {
	bundle, err := apps.Build(apps.Gnuld, apps.FullScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spechint.Transform(bundle.Original, spechint.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkSweepWidth regenerates Figure 3 (nine independent simulation
// cells) with the given worker-pool width. Comparing the Serial and
// Parallel variants measures the fan-out engine's wall-clock win on this
// host; outputs are byte-identical at any width, so only time differs.
func benchmarkSweepWidth(b *testing.B, workers int) {
	old := bench.Parallelism
	bench.Parallelism = workers
	defer func() { bench.Parallelism = old }()
	scale := apps.SweepScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunByName("fig3", scale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSerial(b *testing.B)   { benchmarkSweepWidth(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchmarkSweepWidth(b, runtime.NumCPU()) }
