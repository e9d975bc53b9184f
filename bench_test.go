// Package spechint_bench regenerates the paper's tables and figures as Go
// benchmarks: one benchmark per table/figure. Reported custom metrics are
// the headline numbers of each experiment (percent improvements, overheads),
// so `go test -bench=. -benchmem` both exercises the full system and prints
// the reproduction's key results. Full tables are printed by cmd/tipbench.
package spechint_bench

import (
	"runtime"
	"strconv"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/bench"
	"spechint/internal/core"
	"spechint/internal/spechint"
)

// reportTriple runs the three variants of app at full scale and reports the
// paper's headline metrics.
func reportTriple(b *testing.B, app apps.App, scale apps.Scale) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tr, err := bench.RunTriple(app, scale, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bench.Improvement(tr.Orig, tr.Spec), "spec_improv_%")
		b.ReportMetric(bench.Improvement(tr.Orig, tr.Manual), "manual_improv_%")
		b.ReportMetric(tr.Orig.Seconds(), "orig_s")
		b.ReportMetric(tr.Spec.Seconds(), "spec_s")
	}
}

// BenchmarkFigure3Agrep etc. regenerate the headline chart, one app per
// benchmark so metrics stay attributable.
func BenchmarkFigure3Agrep(b *testing.B)      { reportTriple(b, apps.Agrep, apps.FullScale()) }
func BenchmarkFigure3Gnuld(b *testing.B)      { reportTriple(b, apps.Gnuld, apps.FullScale()) }
func BenchmarkFigure3XDataSlice(b *testing.B) { reportTriple(b, apps.XDataSlice, apps.FullScale()) }

// BenchmarkTable1 reproduces the manual-hint improvements table.
func BenchmarkTable1(b *testing.B) {
	scale := apps.FullScale()
	for i := 0; i < b.N; i++ {
		for _, app := range bench.Apps {
			man, _, err := bench.Run(app, core.ModeManual, scale, nil)
			if err != nil {
				b.Fatal(err)
			}
			orig, _, err := bench.Run(app, core.ModeNoHint, scale, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(bench.Improvement(orig, man), app.String()+"_%")
		}
	}
}

// BenchmarkTable3 measures the binary transformation itself.
func BenchmarkTable3(b *testing.B) {
	scale := apps.FullScale()
	for i := 0; i < b.N; i++ {
		for _, app := range bench.Apps {
			bundle, err := apps.Build(app, scale)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(bundle.Transform.SizeIncreasePct(), app.String()+"_size_%")
		}
	}
}

// BenchmarkFigure4 measures worst-case overhead (TIP ignoring hints).
func BenchmarkFigure4(b *testing.B) {
	scale := apps.FullScale()
	for i := 0; i < b.N; i++ {
		for _, app := range bench.Apps {
			orig, _, err := bench.Run(app, core.ModeNoHint, scale, nil)
			if err != nil {
				b.Fatal(err)
			}
			ig, _, err := bench.Run(app, core.ModeSpeculating, scale, func(c *core.Config) {
				c.TIP.IgnoreHints = true
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*(float64(ig.Elapsed)/float64(orig.Elapsed)-1), app.String()+"_overhead_%")
		}
	}
}

// BenchmarkTable4 reports hinting coverage.
func BenchmarkTable4(b *testing.B) {
	scale := apps.FullScale()
	for i := 0; i < b.N; i++ {
		for _, app := range bench.Apps {
			spec, _, err := bench.Run(app, core.ModeSpeculating, scale, nil)
			if err != nil {
				b.Fatal(err)
			}
			hinted := 100 * float64(spec.Tip.HintedReadCalls) / float64(spec.Tip.ReadCalls)
			b.ReportMetric(hinted, app.String()+"_hinted_%")
		}
	}
}

// BenchmarkTable5 reports prefetch effectiveness of the speculating runs.
func BenchmarkTable5(b *testing.B) {
	scale := apps.FullScale()
	for i := 0; i < b.N; i++ {
		for _, app := range bench.Apps {
			spec, _, err := bench.Run(app, core.ModeSpeculating, scale, nil)
			if err != nil {
				b.Fatal(err)
			}
			pref := spec.Tip.PrefetchedBlocks()
			if pref > 0 {
				b.ReportMetric(100*float64(spec.Cache.FullyPref)/float64(pref), app.String()+"_fully_%")
			}
		}
	}
}

// BenchmarkTable6 reports speculation side-effects.
func BenchmarkTable6(b *testing.B) {
	scale := apps.FullScale()
	for i := 0; i < b.N; i++ {
		for _, app := range bench.Apps {
			spec, _, err := bench.Run(app, core.ModeSpeculating, scale, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(spec.FootprintBytes)/1024, app.String()+"_footprint_KB")
			b.ReportMetric(float64(spec.SpecSignals), app.String()+"_signals")
		}
	}
}

// BenchmarkTable7 sweeps the file cache size.
func BenchmarkTable7(b *testing.B) {
	scale := apps.SweepScale()
	for i := 0; i < b.N; i++ {
		for _, mb := range []int{6, 12, 64} {
			tr, err := bench.RunTriple(apps.Gnuld, scale, func(c *core.Config) {
				c.TIP.CacheBlocks = mb << 20 / c.Disk.BlockSize
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(bench.Improvement(tr.Orig, tr.Spec), "gnuld_spec_"+itoa(mb)+"MB_%")
		}
	}
}

// BenchmarkTable8 sweeps disks for the original applications.
func BenchmarkTable8(b *testing.B) {
	scale := apps.SweepScale()
	for i := 0; i < b.N; i++ {
		for _, d := range []int{1, 4, 10} {
			st, _, err := bench.Run(apps.Agrep, core.ModeNoHint, scale, func(c *core.Config) {
				c.Disk = core.TestbedDisk(d)
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(st.Seconds(), "agrep_orig_"+itoa(d)+"d_s")
		}
	}
}

// BenchmarkFigure5 sweeps the disk count for speculating and manual builds.
func BenchmarkFigure5(b *testing.B) {
	scale := apps.SweepScale()
	for i := 0; i < b.N; i++ {
		for _, d := range []int{1, 4, 10} {
			for _, app := range bench.Apps {
				tr, err := bench.RunTriple(app, scale, func(c *core.Config) {
					c.Disk = core.TestbedDisk(d)
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(bench.Improvement(tr.Orig, tr.Spec), app.String()+"_"+itoa(d)+"d_%")
			}
		}
	}
}

// BenchmarkFigure6 sweeps the processor/disk speed ratio.
func BenchmarkFigure6(b *testing.B) {
	scale := apps.SweepScale()
	for i := 0; i < b.N; i++ {
		for _, r := range []int{1, 3, 9} {
			tr, err := bench.RunTriple(apps.Agrep, scale, func(c *core.Config) {
				c.Disk.DelayFactor = r
				c.Disk.MaxPrefetchPerDisk = 1
				c.MaxCycles *= int64(r)
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(bench.Improvement(tr.Orig, tr.Spec), "agrep_x"+itoa(r)+"_%")
		}
	}
}

// BenchmarkRegionSize is the §3.2.1 COW-region ablation.
func BenchmarkRegionSize(b *testing.B) {
	scale := apps.SweepScale()
	for i := 0; i < b.N; i++ {
		for _, rs := range []int{128, 1024, 8192} {
			st, _, err := bench.Run(apps.Gnuld, core.ModeSpeculating, scale, func(c *core.Config) {
				c.Machine.COWRegion = rs
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(st.Seconds(), "gnuld_"+itoa(rs)+"B_s")
		}
	}
}

// BenchmarkCancelThrottle is the §5 single-disk throttle experiment.
func BenchmarkCancelThrottle(b *testing.B) {
	scale := apps.SweepScale()
	for i := 0; i < b.N; i++ {
		orig, _, err := bench.Run(apps.Gnuld, core.ModeNoHint, scale, func(c *core.Config) {
			c.Disk = core.TestbedDisk(1)
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, throttle := range []int{0, 2} {
			st, _, err := bench.Run(apps.Gnuld, core.ModeSpeculating, scale, func(c *core.Config) {
				c.Disk = core.TestbedDisk(1)
				c.CancelThrottle = throttle
				c.CancelThrottleCycles = 500_000_000
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(bench.Improvement(orig, st), "throttle"+itoa(throttle)+"_%")
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

func itoa(v int) string { return strconv.Itoa(v) }
