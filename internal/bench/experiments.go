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

// grid is one cell per (app, value) pair, apps outermost, so experiments
// index it as a*len(vals)+i: each cell is base with the app set, and set
// applies the value.
func grid[V any](base Cell, as []apps.App, vals []V, set func(*Cell, V)) []Cell {
	var cs []Cell
	for _, a := range as {
		for _, v := range vals {
			c := base
			c.App = a
			set(&c, v)
			cs = append(cs, c)
		}
	}
	return cs
}

func setDisks(c *Cell, d int)      { c.Disks = d }
func setCacheMB(c *Cell, mb int)   { c.CacheMB = mb }
func setMode(c *Cell, m core.Mode) { c.Mode = m }

// suite is base for every benchmark app. suite(Cell{Scale: scale}) is the
// default (4-disk, 12 MB cache) configuration: the one triple per app that
// every table on that configuration formats.
func suite(base Cell) []Cell {
	cs := make([]Cell, len(Apps))
	for i, a := range Apps {
		cs[i] = base
		cs[i].App = a
	}
	return cs
}

// joinCells is the Postgres join at each selectivity; Table 1 reads two of
// join's cells.
func joinCells(scale apps.Scale, sels ...int) []Cell {
	return grid(Cell{Scale: scale}, []apps.App{apps.Postgres}, sels,
		func(c *Cell, sel int) { c.Scale.Postgres.Selectivity = sel })
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
func secs(s *core.RunStats) string {
	return fmt.Sprintf("%.2f", s.Seconds())
}

// header is first followed by each value printed with format.
func header[V any](first, format string, vals []V) []string {
	h := []string{first}
	for _, v := range vals {
		h = append(h, fmt.Sprintf(format, v))
	}
	return h
}

// appLabels prefixes each app's series rows with its name.
var appLabels = header("", "%v ", Apps)[1:]

// curves adds a speculating and a manual improvement row per label, each
// over its label's share of triples (consecutive, in label order).
func curves(t *table, labels []string, triples []*Triple) {
	n := len(triples) / len(labels)
	for a, label := range labels {
		spec, man := []string{label + "speculating"}, []string{label + "manual"}
		for _, tr := range triples[a*n : (a+1)*n] {
			spec = append(spec, pct(Improvement(tr.Orig, tr.Spec)))
			man = append(man, pct(Improvement(tr.Orig, tr.Manual)))
		}
		t.row(spec...)
		t.row(man...)
	}
}

// secsRows adds one row per app of its share of stats' elapsed seconds.
func secsRows(t *table, stats []*core.RunStats) {
	n := len(stats) / len(Apps)
	for a, app := range Apps {
		row := []string{app.String()}
		for _, st := range stats[a*n : (a+1)*n] {
			row = append(row, secs(st))
		}
		t.row(row...)
	}
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
	// The paper's Table 1 also lists Patterson's Postgres join at two
	// selectivities; reproduce those rows too.
	sels := []int{20, 80}
	triples, err := runTriples(append(suite(Cell{Scale: scale}), joinCells(scale, sels...)...))
	if err != nil {
		return nil, err
	}
	for _, tr := range triples[:len(Apps)] {
		t.row(tr.App.String(), pct(Improvement(tr.Orig, tr.Manual)), desc[tr.App])
	}
	for i, sel := range sels {
		tr := triples[len(Apps)+i]
		t.row(fmt.Sprintf("Postgres, %d%%", sel), pct(Improvement(tr.Orig, tr.Manual)),
			"database join, % tuples resulting")
	}
	return t, nil
}

// joinSelectivities is the Postgres join's selectivity sweep, in percent of
// tuples resulting.
var joinSelectivities = []int{10, 20, 40, 80}

// joinSelectivity sweeps the Postgres join's selectivity, extending the
// paper's two Table 1 points into a curve for all three builds.
func joinSelectivity(scale apps.Scale) (Report, error) {
	t := newTable("Postgres join: % improvement vs selectivity")
	t.row(header("Series", "%d%%", joinSelectivities)...)
	triples, err := runTriples(joinCells(scale, joinSelectivities...))
	if err != nil {
		return nil, err
	}
	curves(t, []string{""}, triples)
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
	triples, err := runTriples(suite(Cell{Scale: scale}))
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
	ignored, err := runCells(suite(Cell{Mode: core.ModeSpeculating, Scale: scale, IgnoreHints: true}))
	if err != nil {
		return nil, err
	}
	triples, err := runTriples(suite(Cell{Scale: scale}))
	if err != nil {
		return nil, err
	}
	for i, tr := range triples {
		over := 100 * (float64(ignored[i].Elapsed)/float64(tr.Orig.Elapsed) - 1)
		t.row(tr.App.String(), secs(tr.Orig), secs(ignored[i]), pct(over))
	}
	return t, nil
}

// table4 reproduces the hinting statistics.
func table4(scale apps.Scale) (Report, error) {
	t := newTable("Table 4: hinting statistics")
	t.row("Benchmark", "", "Read calls", "Read blocks", "Read bytes", "Write calls", "Write bytes")
	triples, err := runTriples(suite(Cell{Scale: scale}))
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

// variantNames labels a triple's runs in Tables 5 and 6.
var variantNames = [3]string{"Original", "SpecHint", "Manual"}

// table5 reproduces the prefetching and caching statistics.
func table5(scale apps.Scale) (Report, error) {
	t := newTable("Table 5: prefetching and caching statistics")
	t.row("Benchmark", "", "Cache block reads", "Prefetched", "Ride-along", "Fully", "%", "Partially", "%", "Unused", "%", "Reuses")
	triples, err := runTriples(suite(Cell{Scale: scale}))
	if err != nil {
		return nil, err
	}
	for _, tr := range triples {
		for i, st := range tr.runs() {
			c := st.Cache
			pref := st.Tip.PrefetchedBlocks()
			unused := c.UnusedHint + c.UnusedRA
			t.row(tr.App.String(), variantNames[i],
				fmt.Sprint(c.Hits+c.Misses),
				fmt.Sprint(pref),
				fmt.Sprint(st.Tip.RideAlongs),
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
	triples, err := runTriples(suite(Cell{Scale: scale}))
	if err != nil {
		return nil, err
	}
	for _, tr := range triples {
		for i, st := range tr.runs() {
			t.row(tr.App.String(), variantNames[i],
				fmt.Sprintf("%d KB", st.FootprintBytes/1024),
				fmt.Sprint(st.Pages.Reclaims),
				fmt.Sprint(st.Pages.Faults),
				fmt.Sprint(st.SpecSignals),
				fmt.Sprint(st.Restarts))
		}
	}
	return t, nil
}

// cacheSizesMB is Table 7's file-cache-size sweep.
var cacheSizesMB = []int{6, 12, 64}

// table7 reproduces the file-cache-size sensitivity study.
func table7(scale apps.Scale) (Report, error) {
	t := newTable("Table 7: elapsed time (s) as the file cache size is varied")
	sizes := cacheSizesMB
	t.row("Benchmark", "", "6 MB", "12 MB", "64 MB")
	triples, err := runTriples(grid(Cell{Scale: scale}, Apps, sizes, setCacheMB))
	if err != nil {
		return nil, err
	}
	with := func(st, orig *core.RunStats) string {
		return fmt.Sprintf("%s (%s)", secs(st), pct(Improvement(orig, st)))
	}
	for a, app := range Apps {
		rows := [3][]string{{app.String(), variantNames[0]}, {"", variantNames[1]}, {"", variantNames[2]}}
		for _, tr := range triples[a*len(sizes) : (a+1)*len(sizes)] {
			rows[0] = append(rows[0], secs(tr.Orig))
			rows[1] = append(rows[1], with(tr.Spec, tr.Orig))
			rows[2] = append(rows[2], with(tr.Manual, tr.Orig))
		}
		for _, row := range rows {
			t.row(row...)
		}
	}
	return t, nil
}

// table8 reproduces the original applications' insensitivity to the number
// of disks.
func table8(scale apps.Scale) (Report, error) {
	t := newTable("Table 8: elapsed time (s) of original applications vs number of disks")
	disks := []int{1, 2, 4, 10}
	t.row(header("Benchmark", "%d", disks)...)
	stats, err := runCells(grid(Cell{Scale: scale}, Apps, disks, setDisks))
	if err != nil {
		return nil, err
	}
	secsRows(t, stats)
	return t, nil
}

// Figure5Disks is the disk-count sweep used by figure5.
var Figure5Disks = []int{1, 2, 3, 4, 6, 8, 10}

// figure5 reproduces the performance-improvement-vs-parallelism curves.
func figure5(scale apps.Scale) (Report, error) {
	t := newTable("Figure 5: % improvement vs number of disks")
	t.row(header("Series", "%dd", Figure5Disks)...)
	triples, err := runTriples(grid(Cell{Scale: scale}, Apps, Figure5Disks, setDisks))
	if err != nil {
		return nil, err
	}
	curves(t, appLabels, triples)
	return t, nil
}

// Figure6Ratios is the processor/disk speed-ratio sweep used by figure6.
var Figure6Ratios = []int{1, 2, 3, 5, 7, 9}

// figure6 reproduces the widening processor/disk gap simulation: each cell's
// SpeedRatio delays completion notification by the ratio (and keeps one
// prefetch per disk). The paper scaled measurements by 1/ratio; Improvement
// is a ratio of elapsed times, so the scaling cancels: it is the delayed
// *notification* that changes behaviour.
func figure6(scale apps.Scale) (Report, error) {
	t := newTable("Figure 6: % improvement vs processor/disk speed ratio (4 disks)")
	t.row(header("Series", "x%d", Figure6Ratios)...)
	triples, err := runTriples(grid(Cell{Scale: scale}, Apps, Figure6Ratios, func(c *Cell, r int) { c.SpeedRatio = r }))
	if err != nil {
		return nil, err
	}
	curves(t, appLabels, triples)
	return t, nil
}

// RegionSizes is the §3.2.1 COW-region-size ablation sweep.
var RegionSizes = []int{128, 512, 1024, 4096, 8192}

// regionSize reproduces the §3.2.1 observation that the copy-on-write
// region size generally makes little difference.
func regionSize(scale apps.Scale) (Report, error) {
	t := newTable("§3.2.1 ablation: speculating elapsed time (s) vs COW region size")
	t.row(header("Benchmark", "%dB", RegionSizes)...)
	stats, err := runCells(grid(Cell{Mode: core.ModeSpeculating, Scale: scale}, Apps, RegionSizes,
		func(c *Cell, rs int) { c.COWRegion = rs }))
	if err != nil {
		return nil, err
	}
	secsRows(t, stats)
	return t, nil
}

// limiters runs Gnuld on one disk, original and then speculating under each
// of the first len(names) limiters, and tabulates the runs under names.
func limiters(scale apps.Scale, title string, names ...string) (Report, error) {
	cs := []Cell{{App: apps.Gnuld, Scale: scale, Disks: 1}}
	for l := range names {
		cs = append(cs, Cell{App: apps.Gnuld, Mode: core.ModeSpeculating, Scale: scale, Disks: 1, Limiter: Limiter(l)})
	}
	stats, err := runCells(cs)
	if err != nil {
		return nil, err
	}
	t := newTable(title)
	t.row("Configuration", "Elapsed (s)", "Restarts", "vs original")
	orig := stats[0]
	t.row("original", secs(orig), "0", "-")
	for i, st := range stats[1:] {
		t.row(names[i], secs(st), fmt.Sprint(st.Restarts), pct(Improvement(orig, st)))
	}
	return t, nil
}

// throttle reproduces the §5 result: the ad-hoc cancel throttle eliminates
// Gnuld's speculation penalty when the I/O system offers no parallelism. Its
// cells are the first three of adaptive's.
func throttle(scale apps.Scale) (Report, error) {
	return limiters(scale, "§5: Gnuld on one disk, with and without the cancel throttle",
		"speculating, no throttle", "speculating, throttle")
}

// mpDisks are the array sizes of the second-processor experiment.
var mpDisks = []int{4, 10}

// multiProcessor explores the paper's §5 multiprocessor scenario: the
// speculating thread runs on a second processor, in parallel with normal
// execution instead of only during I/O stalls. Data-dependence-free
// applications whose hint generation was dilation-limited (Agrep on large
// arrays) benefit most.
func multiProcessor(scale apps.Scale) (Report, error) {
	t := newTable("§5 extension: speculation on a second processor (% improvement over original)")
	t.row("Benchmark", "disks", "1 CPU spec", "2 CPU spec", "manual")
	disks := mpDisks
	// Four runs per (app, disks) point: the triple plus the dual-processor
	// speculating run.
	triples, err := runTriples(grid(Cell{Scale: scale}, Apps, disks, setDisks))
	if err != nil {
		return nil, err
	}
	mps, err := runCells(grid(Cell{Mode: core.ModeSpeculating, Scale: scale, DualCPU: true}, Apps, disks, setDisks))
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
	return limiters(scale, "§5 extension: erroneous-hint limiters (Gnuld, 1 disk)",
		"no limiter", "fixed cancel throttle", "adaptive (accuracy-gated)")
}
