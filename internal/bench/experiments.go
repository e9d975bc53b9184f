package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"spechint/internal/apps"
	"spechint/internal/core"
)

// table collects rows and renders an aligned text table. It is itself the
// Report of a plain paper table.
type table struct {
	b strings.Builder
	w *tabwriter.Writer
}

func newTable(title string) *table {
	t := &table{}
	t.b.WriteString(title)
	t.b.WriteString("\n")
	t.w = tabwriter.NewWriter(&t.b, 2, 4, 2, ' ', 0)
	return t
}

func (t *table) row(cells ...string) {
	fmt.Fprintln(t.w, strings.Join(cells, "\t"))
}

func (t *table) Text() string {
	t.w.Flush()
	return t.b.String()
}

// suiteTriples runs every benchmark app's three variants under the default
// (4-disk, 12 MB cache) configuration as one flat app-by-mode fan-out; the
// tables that share that configuration format from the result.
func suiteTriples(scale apps.Scale) ([]*Triple, error) {
	return runTripleGrid(len(Apps), func(i int) (apps.App, apps.Scale, Mutator) {
		return Apps[i], scale, nil
	})
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
func secs(s *core.RunStats) string {
	return fmt.Sprintf("%.2f", s.Seconds())
}

// table1 reproduces the paper's Table 1 for our suite: the reduction in
// execution time from manually-inserted hints (the motivating result).
// The paper's other four applications (Davidson, Postgres, Sphinx) were
// closed to us; the three TIP-suite apps are reproduced.
func table1(scale apps.Scale) (Report, error) {
	t := newTable("Table 1: execution-time reduction from manual hints (4 disks)")
	t.row("Benchmark", "Improvement", "Description")
	desc := map[apps.App]string{
		apps.Agrep:      "text search",
		apps.Gnuld:      "object code linker",
		apps.XDataSlice: "scientific visualization",
	}
	triples, err := suiteTriples(scale)
	if err != nil {
		return nil, err
	}
	for _, tr := range triples {
		t.row(tr.App.String(), pct(Improvement(tr.Orig, tr.Manual)), desc[tr.App])
	}
	// The paper's Table 1 also lists Patterson's Postgres join at two
	// selectivities; reproduce those rows too.
	sels := []int{20, 80}
	joins, err := runTripleGrid(len(sels), func(i int) (apps.App, apps.Scale, Mutator) {
		sc := scale
		sc.Postgres.Selectivity = sels[i]
		return apps.Postgres, sc, nil
	})
	if err != nil {
		return nil, err
	}
	for i, sel := range sels {
		t.row(fmt.Sprintf("Postgres, %d%%", sel), pct(Improvement(joins[i].Orig, joins[i].Manual)),
			"database join, % tuples resulting")
	}
	return t, nil
}

// joinSelectivity sweeps the Postgres join's selectivity, extending the
// paper's two Table 1 points into a curve for all three builds.
func joinSelectivity(scale apps.Scale) (Report, error) {
	t := newTable("Postgres join: % improvement vs selectivity")
	sels := []int{10, 20, 40, 80}
	header := []string{"Series"}
	for _, sel := range sels {
		header = append(header, fmt.Sprintf("%d%%", sel))
	}
	t.row(header...)
	triples, err := runTripleGrid(len(sels), func(i int) (apps.App, apps.Scale, Mutator) {
		sc := scale
		sc.Postgres.Selectivity = sels[i]
		return apps.Postgres, sc, nil
	})
	if err != nil {
		return nil, err
	}
	spec := []string{"speculating"}
	man := []string{"manual"}
	for _, tr := range triples {
		spec = append(spec, pct(Improvement(tr.Orig, tr.Spec)))
		man = append(man, pct(Improvement(tr.Orig, tr.Manual)))
	}
	t.row(spec...)
	t.row(man...)
	return t, nil
}

// table3 reproduces the transformed-application statistics: executable size
// growth and the transform's counters. The transform's host time is not a
// simulated number, so it is left to spechint's stderr and BenchmarkTransform.
func table3(scale apps.Scale) (Report, error) {
	t := newTable("Table 3: transformed application statistics")
	t.row("Benchmark", "Executable size", "% increase",
		"COW checks", "static jumps", "handler jumps", "jump tables")
	bundles, err := parMap(len(Apps), func(i int) (*apps.Bundle, error) {
		return apps.Build(Apps[i], scale)
	})
	if err != nil {
		return nil, err
	}
	for i, app := range Apps {
		ts := bundles[i].Transform
		t.row(app.String(),
			fmt.Sprintf("%d B", ts.TotalBytes),
			pct(ts.SizeIncreasePct()),
			fmt.Sprint(ts.ChecksAdded),
			fmt.Sprint(ts.StaticJumps),
			fmt.Sprint(ts.DynamicJumps),
			fmt.Sprint(ts.TablesStatic),
		)
	}
	return t, nil
}

// figure3 reproduces the headline performance chart: elapsed time of the
// original, speculating and manually-hinted builds on four disks.
func figure3(scale apps.Scale) (Report, error) {
	t := newTable("Figure 3: elapsed time (seconds), 4 disks, 12 MB cache")
	t.row("Benchmark", "Original", "Speculating", "Manual", "Spec improv.", "Manual improv.")
	triples, err := suiteTriples(scale)
	if err != nil {
		return nil, err
	}
	for _, tr := range triples {
		t.row(tr.App.String(), secs(tr.Orig), secs(tr.Spec), secs(tr.Manual),
			pct(Improvement(tr.Orig, tr.Spec)), pct(Improvement(tr.Orig, tr.Manual)))
	}
	return t, nil
}

// figure4 reproduces the worst-case overhead measurement: the speculating
// binary with TIP configured to ignore hints, versus the original.
func figure4(scale apps.Scale) (Report, error) {
	t := newTable("Figure 4: runtime overhead with TIP ignoring hints")
	t.row("Benchmark", "Original (s)", "Speculating, hints ignored (s)", "Overhead")
	ignored, err := parMap(len(Apps), func(i int) (*core.RunStats, error) {
		ig, _, err := Run(Apps[i], core.ModeSpeculating, scale, func(c *core.Config) {
			c.TIP.IgnoreHints = true
		})
		return ig, err
	})
	if err != nil {
		return nil, err
	}
	triples, err := suiteTriples(scale)
	if err != nil {
		return nil, err
	}
	for i, app := range Apps {
		tr, ig := triples[i], ignored[i]
		over := 100 * (float64(ig.Elapsed)/float64(tr.Orig.Elapsed) - 1)
		t.row(app.String(), secs(tr.Orig), secs(ig), pct(over))
	}
	return t, nil
}

// table4 reproduces the hinting statistics.
func table4(scale apps.Scale) (Report, error) {
	t := newTable("Table 4: hinting statistics")
	t.row("Benchmark", "", "Read calls", "Read blocks", "Read bytes", "Write calls", "Write bytes")
	triples, err := suiteTriples(scale)
	if err != nil {
		return nil, err
	}
	for _, tr := range triples {
		o, sp, mn := tr.Orig.Tip, tr.Spec.Tip, tr.Manual.Tip
		t.row(tr.App.String(), "total",
			fmt.Sprint(o.ReadCalls), fmt.Sprint(o.ReadBlocks), fmt.Sprint(o.ReadBytes),
			fmt.Sprint(tr.Orig.WriteCalls), fmt.Sprint(tr.Orig.WriteBytes))
		t.row("", "% hinted",
			pct(100*float64(sp.HintedReadCalls)/f(sp.ReadCalls)),
			pct(100*float64(sp.HintedReadBlocks)/f(sp.ReadBlocks)),
			pct(100*float64(sp.HintedReadBytes)/f(sp.ReadBytes)), "-", "-")
		t.row("", "inaccurately hinted",
			fmt.Sprint(sp.InaccurateCalls()),
			fmt.Sprint(sp.InaccurateBlocks()),
			fmt.Sprint(sp.InaccurateBytes()), "-", "-")
		t.row("", "% manually hinted",
			pct(100*float64(mn.HintedReadCalls)/f(mn.ReadCalls)),
			pct(100*float64(mn.HintedReadBlocks)/f(mn.ReadBlocks)),
			pct(100*float64(mn.HintedReadBytes)/f(mn.ReadBytes)), "-", "-")
	}
	return t, nil
}

func f(v int64) float64 {
	if v == 0 {
		return 1
	}
	return float64(v)
}

// table5 reproduces the prefetching and caching statistics.
func table5(scale apps.Scale) (Report, error) {
	t := newTable("Table 5: prefetching and caching statistics")
	t.row("Benchmark", "", "Cache block reads", "Prefetched", "Ride-along", "Fully", "%", "Partially", "%", "Unused", "%", "Reuses")
	triples, err := suiteTriples(scale)
	if err != nil {
		return nil, err
	}
	for _, tr := range triples {
		for _, v := range []struct {
			name string
			st   *core.RunStats
		}{{"Original", tr.Orig}, {"SpecHint", tr.Spec}, {"Manual", tr.Manual}} {
			c := v.st.Cache
			pref := v.st.Tip.PrefetchedBlocks()
			unused := c.UnusedHint + c.UnusedRA
			t.row(tr.App.String(), v.name,
				fmt.Sprint(c.Hits+c.Misses),
				fmt.Sprint(pref),
				fmt.Sprint(v.st.Tip.RideAlongs),
				fmt.Sprint(c.FullyPref), pct(100*float64(c.FullyPref)/f(pref)),
				fmt.Sprint(c.PartialWaits), pct(100*float64(c.PartialWaits)/f(pref)),
				fmt.Sprint(unused), pct(100*float64(unused)/f(pref)),
				fmt.Sprint(c.Reuses))
		}
	}
	return t, nil
}

// table6 reproduces the performance side-effects of speculation.
func table6(scale apps.Scale) (Report, error) {
	t := newTable("Table 6: performance side-effects of speculative execution")
	t.row("Benchmark", "", "Footprint", "Reclaims", "Faults", "Sigs", "Restarts")
	triples, err := suiteTriples(scale)
	if err != nil {
		return nil, err
	}
	for _, tr := range triples {
		for _, v := range []struct {
			name string
			st   *core.RunStats
		}{{"Original", tr.Orig}, {"SpecHint", tr.Spec}, {"Manual", tr.Manual}} {
			t.row(tr.App.String(), v.name,
				fmt.Sprintf("%d KB", v.st.FootprintBytes/1024),
				fmt.Sprint(v.st.Pages.Reclaims),
				fmt.Sprint(v.st.Pages.Faults),
				fmt.Sprint(v.st.SpecSignals),
				fmt.Sprint(v.st.Restarts))
		}
	}
	return t, nil
}

// table7 reproduces the file-cache-size sensitivity study.
func table7(scale apps.Scale) (Report, error) {
	t := newTable("Table 7: elapsed time (s) as the file cache size is varied")
	sizes := []int{6, 12, 64}
	t.row("Benchmark", "", "6 MB", "12 MB", "64 MB")
	triples, err := runTripleGrid(len(Apps)*len(sizes), func(i int) (apps.App, apps.Scale, Mutator) {
		mb := sizes[i%len(sizes)]
		return Apps[i/len(sizes)], scale, func(c *core.Config) {
			c.TIP.CacheBlocks = mb << 20 / c.Disk.BlockSize
		}
	})
	if err != nil {
		return nil, err
	}
	for a, app := range Apps {
		rows := map[core.Mode][]string{}
		for i := range sizes {
			tr := triples[a*len(sizes)+i]
			rows[core.ModeNoHint] = append(rows[core.ModeNoHint], secs(tr.Orig))
			rows[core.ModeSpeculating] = append(rows[core.ModeSpeculating],
				fmt.Sprintf("%s (%s)", secs(tr.Spec), pct(Improvement(tr.Orig, tr.Spec))))
			rows[core.ModeManual] = append(rows[core.ModeManual],
				fmt.Sprintf("%s (%s)", secs(tr.Manual), pct(Improvement(tr.Orig, tr.Manual))))
		}
		t.row(append([]string{app.String(), "Original"}, rows[core.ModeNoHint]...)...)
		t.row(append([]string{"", "SpecHint"}, rows[core.ModeSpeculating]...)...)
		t.row(append([]string{"", "Manual"}, rows[core.ModeManual]...)...)
	}
	return t, nil
}

// table8 reproduces the original applications' insensitivity to the number
// of disks.
func table8(scale apps.Scale) (Report, error) {
	t := newTable("Table 8: elapsed time (s) of original applications vs number of disks")
	disks := []int{1, 2, 4, 10}
	header := []string{"Benchmark"}
	for _, d := range disks {
		header = append(header, fmt.Sprint(d))
	}
	t.row(header...)
	stats, err := parMap(len(Apps)*len(disks), func(i int) (*core.RunStats, error) {
		d := disks[i%len(disks)]
		st, _, err := Run(Apps[i/len(disks)], core.ModeNoHint, scale, func(c *core.Config) {
			c.Disk = core.TestbedDisk(d)
		})
		return st, err
	})
	if err != nil {
		return nil, err
	}
	for a, app := range Apps {
		cells := []string{app.String()}
		for i := range disks {
			cells = append(cells, secs(stats[a*len(disks)+i]))
		}
		t.row(cells...)
	}
	return t, nil
}

// Figure5Disks is the disk-count sweep used by figure5.
var Figure5Disks = []int{1, 2, 3, 4, 6, 8, 10}

// figure5 reproduces the performance-improvement-vs-parallelism curves.
func figure5(scale apps.Scale) (Report, error) {
	t := newTable("Figure 5: % improvement vs number of disks")
	header := []string{"Series"}
	for _, d := range Figure5Disks {
		header = append(header, fmt.Sprintf("%dd", d))
	}
	t.row(header...)
	nd := len(Figure5Disks)
	triples, err := runTripleGrid(len(Apps)*nd, func(i int) (apps.App, apps.Scale, Mutator) {
		d := Figure5Disks[i%nd]
		return Apps[i/nd], scale, func(c *core.Config) {
			c.Disk = core.TestbedDisk(d)
		}
	})
	if err != nil {
		return nil, err
	}
	for a, app := range Apps {
		spec := []string{app.String() + " speculating"}
		man := []string{app.String() + " manual"}
		for i := range Figure5Disks {
			tr := triples[a*nd+i]
			spec = append(spec, pct(Improvement(tr.Orig, tr.Spec)))
			man = append(man, pct(Improvement(tr.Orig, tr.Manual)))
		}
		t.row(spec...)
		t.row(man...)
	}
	return t, nil
}

// Figure6Ratios is the processor/disk speed-ratio sweep used by figure6.
var Figure6Ratios = []int{1, 2, 3, 5, 7, 9}

// figure6 reproduces the widening processor/disk gap simulation: completion
// notification is delayed by the ratio (and TIP keeps at most one prefetch
// outstanding per disk, as the paper configured), then measured elapsed
// times are scaled back down by the ratio.
func figure6(scale apps.Scale) (Report, error) {
	t := newTable("Figure 6: % improvement vs processor/disk speed ratio (4 disks)")
	header := []string{"Series"}
	for _, r := range Figure6Ratios {
		header = append(header, fmt.Sprintf("x%d", r))
	}
	t.row(header...)
	nr := len(Figure6Ratios)
	triples, err := runTripleGrid(len(Apps)*nr, func(i int) (apps.App, apps.Scale, Mutator) {
		r := Figure6Ratios[i%nr]
		return Apps[i/nr], scale, func(c *core.Config) {
			c.Disk.DelayFactor = r
			c.TIP.MaxDepthPerDisk, c.TIP.RADepthPerDisk = 1, 1
			c.MaxCycles *= int64(r)
		}
	})
	if err != nil {
		return nil, err
	}
	for a, app := range Apps {
		spec := []string{app.String() + " speculating"}
		man := []string{app.String() + " manual"}
		for i := range Figure6Ratios {
			tr := triples[a*nr+i]
			// Scale measurements by 1/ratio, as the paper did. Improvement
			// is a ratio of elapsed times, so the scaling cancels; it is
			// the delayed *notification* that changes behaviour.
			spec = append(spec, pct(Improvement(tr.Orig, tr.Spec)))
			man = append(man, pct(Improvement(tr.Orig, tr.Manual)))
		}
		t.row(spec...)
		t.row(man...)
	}
	return t, nil
}

// RegionSizes is the §3.2.1 COW-region-size ablation sweep.
var RegionSizes = []int{128, 512, 1024, 4096, 8192}

// regionSize reproduces the §3.2.1 observation that the copy-on-write
// region size generally makes little difference.
func regionSize(scale apps.Scale) (Report, error) {
	t := newTable("§3.2.1 ablation: speculating elapsed time (s) vs COW region size")
	header := []string{"Benchmark"}
	for _, rs := range RegionSizes {
		header = append(header, fmt.Sprintf("%dB", rs))
	}
	t.row(header...)
	stats, err := parMap(len(Apps)*len(RegionSizes), func(i int) (*core.RunStats, error) {
		rs := RegionSizes[i%len(RegionSizes)]
		st, _, err := Run(Apps[i/len(RegionSizes)], core.ModeSpeculating, scale, func(c *core.Config) {
			c.Machine.COWRegion = rs
		})
		return st, err
	})
	if err != nil {
		return nil, err
	}
	for a, app := range Apps {
		cells := []string{app.String()}
		for i := range RegionSizes {
			cells = append(cells, secs(stats[a*len(RegionSizes)+i]))
		}
		t.row(cells...)
	}
	return t, nil
}

// throttle reproduces the §5 result: the ad-hoc cancel throttle eliminates
// Gnuld's speculation penalty when the I/O system offers no parallelism.
func throttle(scale apps.Scale) (Report, error) {
	t := newTable("§5: Gnuld on one disk, with and without the cancel throttle")
	t.row("Configuration", "Elapsed (s)", "Restarts", "vs original")
	orig, _, err := Run(apps.Gnuld, core.ModeNoHint, scale, func(c *core.Config) {
		c.Disk = core.TestbedDisk(1)
	})
	if err != nil {
		return nil, err
	}
	t.row("original", secs(orig), "0", "-")
	off, _, err := Run(apps.Gnuld, core.ModeSpeculating, scale, func(c *core.Config) {
		c.Disk = core.TestbedDisk(1)
	})
	if err != nil {
		return nil, err
	}
	t.row("speculating, no throttle", secs(off), fmt.Sprint(off.Restarts), pct(Improvement(orig, off)))
	on, _, err := Run(apps.Gnuld, core.ModeSpeculating, scale, func(c *core.Config) {
		c.Disk = core.TestbedDisk(1)
		c.CancelThrottle = 2
		c.CancelThrottleCycles = 500_000_000
	})
	if err != nil {
		return nil, err
	}
	t.row("speculating, throttle", secs(on), fmt.Sprint(on.Restarts), pct(Improvement(orig, on)))
	return t, nil
}

// multiProcessor explores the paper's §5 multiprocessor scenario: the
// speculating thread runs on a second processor, in parallel with normal
// execution instead of only during I/O stalls. Data-dependence-free
// applications whose hint generation was dilation-limited (Agrep on large
// arrays) benefit most.
func multiProcessor(scale apps.Scale) (Report, error) {
	t := newTable("§5 extension: speculation on a second processor (% improvement over original)")
	t.row("Benchmark", "disks", "1 CPU spec", "2 CPU spec", "manual")
	disks := []int{4, 10}
	mut := func(d int, mp bool) Mutator {
		return func(c *core.Config) {
			c.Disk = core.TestbedDisk(d)
			c.DualProcessor = mp
		}
	}
	// Four runs per (app, disks) point: the triple plus the dual-processor
	// speculating run, all as one flat fan-out.
	n := len(Apps) * len(disks)
	triples, err := runTripleGrid(n, func(i int) (apps.App, apps.Scale, Mutator) {
		return Apps[i/len(disks)], scale, mut(disks[i%len(disks)], false)
	})
	if err != nil {
		return nil, err
	}
	mps, err := parMap(n, func(i int) (*core.RunStats, error) {
		mp, _, err := Run(Apps[i/len(disks)], core.ModeSpeculating, scale, mut(disks[i%len(disks)], true))
		return mp, err
	})
	if err != nil {
		return nil, err
	}
	for a, app := range Apps {
		for i, d := range disks {
			tr, mp := triples[a*len(disks)+i], mps[a*len(disks)+i]
			t.row(app.String(), fmt.Sprint(d),
				pct(Improvement(tr.Orig, tr.Spec)),
				pct(Improvement(tr.Orig, mp)),
				pct(Improvement(tr.Orig, tr.Manual)))
		}
	}
	return t, nil
}

// adaptiveLimiter compares the §5 erroneous-hint limiters on the hostile
// configuration (Gnuld, one disk): no limiter, the fixed cancel throttle,
// and the accuracy-gated adaptive limiter.
func adaptiveLimiter(scale apps.Scale) (Report, error) {
	t := newTable("§5 extension: erroneous-hint limiters (Gnuld, 1 disk)")
	t.row("Configuration", "Elapsed (s)", "Restarts", "vs original")
	oneDisk := func(c *core.Config) { c.Disk = core.TestbedDisk(1) }
	orig, _, err := Run(apps.Gnuld, core.ModeNoHint, scale, oneDisk)
	if err != nil {
		return nil, err
	}
	t.row("original", secs(orig), "0", "-")
	cases := []struct {
		name string
		mut  Mutator
	}{
		{"no limiter", oneDisk},
		{"fixed cancel throttle", func(c *core.Config) {
			oneDisk(c)
			c.CancelThrottle = 2
			c.CancelThrottleCycles = 500_000_000
		}},
		{"adaptive (accuracy-gated)", func(c *core.Config) {
			oneDisk(c)
			c.AdaptiveThrottle = true
		}},
	}
	for _, cse := range cases {
		st, _, err := Run(apps.Gnuld, core.ModeSpeculating, scale, cse.mut)
		if err != nil {
			return nil, err
		}
		t.row(cse.name, secs(st), fmt.Sprint(st.Restarts), pct(Improvement(orig, st)))
	}
	return t, nil
}
