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
	"spechint/internal/multi"
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
				b.ReportMetric(float64(work.Visits)/r, "visits/read")
			})
		}
	}
}

// BenchmarkSoloHinted is the same report for one hinting process: the solo
// cells that keep the deepest hint window open — MLShard read in 128 KB
// batches with manual hints, Gnuld speculating, and XDataSlice speculating,
// the heaviest pump cell of bench/perf's sweep_disks — on one disk and on
// four. walks/read counts the pump's passes and steps/read the window
// positions they visited; a pass skips what it has examined while the disks
// it would need are full. allocs/read counts building the System too. `make profile
// B='SoloHinted/XDataSlice'` profiles one cell.
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
		{"XDataSlice/speculating", apps.XDataSlice, core.ModeSpeculating, apps.SweepScale()},
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
				var reads, walks, steps int64
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
					reads, walks, steps = reads+st.ReadCalls, walks+w.Walks, steps+w.Steps
				}
				allocs := mallocs() - before
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(reads), "us/read")
				b.ReportMetric(float64(allocs)/float64(reads), "allocs/read")
				b.ReportMetric(float64(walks)/float64(reads), "walks/read")
				b.ReportMetric(float64(steps)/float64(reads), "steps/read")
			})
		}
	}
}

// BenchmarkGroup builds and runs bench/perf's multi_mix group — Agrep,
// XDataSlice, Gnuld and Agrep at full scale, one group unhinted and then one
// speculating — from an empty program cache each iteration, as a repetition
// of that workload does, and reports what the pair costs the host: us/op, and
// MB/op allocated. `make profile B=Group` profiles group construction
// (workload content, assembly, transform, machine memory) with the runs.
func BenchmarkGroup(b *testing.B) {
	members := []apps.App{apps.Agrep, apps.XDataSlice, apps.Gnuld, apps.Agrep}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apps.ResetProgramCache()
		for _, mode := range []core.Mode{core.ModeNoHint, core.ModeSpeculating} {
			specs := make([]multi.ProcSpec, len(members))
			for j, app := range members {
				specs[j] = multi.ProcSpec{App: app, Mode: mode}
			}
			g, err := multi.NewGroup(multi.DefaultConfig(), apps.FullScale(), specs)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := g.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/op")
	b.ReportMetric(float64(ms.TotalAlloc-before)/float64(b.N)/(1<<20), "MB/op")
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
