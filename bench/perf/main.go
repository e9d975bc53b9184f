// Command perf is the repo's layered benchmark: four named workloads, two
// clocks (host time and simulated time, never mixed), one process per
// workload. See README.md next to this file; BENCHMARK.json at the root of
// the repo is the registry of workloads, metrics, units and bounds.
//
// One invocation runs one workload:
//
//	perf --workload sweep_disks --seed 1 --seconds 20 --trace 0
//
// and prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the traced pass and reports the
// per-layer metrics. run.sh builds this program and runs it, for one
// workload or for all four.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"spechint/internal/bench"
	"spechint/internal/core"
)

// deadline is the longest one invocation may take; the contract allows 180 s.
const deadline = 170 * time.Second

// The set-up is repeated at least setupPasses times and until setupSeconds
// have gone by (a pass of the cluster's takes 40 ms, too short to be steady
// in nine), at most maxSetupPasses times; minReps is the fewest timed
// repetitions a run reports on.
const (
	setupPasses    = 9
	setupSeconds   = 1.5
	maxSetupPasses = 40
	minReps        = 3
)

func main() {
	o := options{setupPasses: setupPasses, minReps: minReps}
	flag.StringVar(&o.workload, "workload", "", "workload to run (see --list)")
	flag.Int64Var(&o.seed, "seed", 1, "added to every generated input's seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Float64Var(&o.buildS, "build-s", 0, "seconds run.sh spent compiling this program (harness.build_s)")
	flag.StringVar(&o.registry, "registry", "BENCHMARK.json", "path of the metric registry")
	flag.StringVar(&o.outDir, "out", "bench/perf/out", "directory for trace files")
	flag.StringVar(&o.appendTo, "append", "", "append this run's full report to a JSON array file")
	flag.StringVar(&o.commit, "commit", "unknown", "commit hash recorded in the report")
	list := flag.Bool("list", false, "print the workload names and exit")
	flag.Parse()

	if *list {
		for _, w := range workloads {
			fmt.Println(w.name)
		}
		return
	}
	if flag.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perf: bad arguments; see --help")
		os.Exit(2)
	}
	w := findWorkload(o.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perf: unknown workload %q; --list names them\n", o.workload)
		os.Exit(2)
	}
	reg, err := loadRegistry(o.registry)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(2)
	}

	// The binary enforces its own deadline: no shell timeout wraps it.
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perf: %s exceeded its %v deadline\n", w.name, deadline)
		os.Exit(3)
	})

	// Strictly serial: one cell at a time, so host times are not contended
	// by the harness itself.
	bench.Parallelism = 1

	rep, err := run(w, o, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if o.appendTo != "" {
		if err := rep.appendTo(o.appendTo); err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			os.Exit(1)
		}
	}
	last, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
	if !rep.Correct {
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	buildS   float64
	registry string
	outDir   string
	appendTo string
	commit   string

	setupPasses, minReps int // the constants above; the tests cut them
}

// ------------------------------------------------------------- registry --

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// registry is BENCHMARK.json.
type registry struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadRegistry(path string) (*registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("registry: %w (run from the root of the repo)", err)
	}
	var reg registry
	if err := json.Unmarshal(data, &reg); err != nil {
		return nil, fmt.Errorf("registry %s: %w", path, err)
	}
	return &reg, nil
}

// ---------------------------------------------------------- repetitions --

// repetition is one pass over a plan's cells.
type repetition struct {
	wall  []float64 // host seconds per cell
	outs  []*outcome
	errs  []error // run or verification failure per cell
	alloc float64 // bytes allocated during the pass
}

func (r *repetition) total() float64 {
	sum := 0.0
	for _, w := range r.wall {
		sum += w
	}
	return sum
}

func (r *repetition) failed() int {
	n := 0
	for _, err := range r.errs {
		if err != nil {
			n++
		}
	}
	return n
}

// runCell runs one cell under recover, so a panic costs one cell, not the run.
func runCell(c cell, tr *tracer) (out *outcome, err error) {
	defer tr.inCell(c.id)()
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return c.run(tr)
}

// runRep resets the plan and runs every cell once, timing each. Every cell
// starts from a collected heap, untimed: the garbage of the cell before —
// half a gigabyte after an XDataSlice cell — would otherwise be collected at
// a moment that differs run to run and be charged to whichever cell it hit.
// g, if not nil, holds each cell back until the core is quiet (quiet.go).
func runRep(p *plan, tr *tracer, g *quietGate) *repetition {
	p.reset()
	n := len(p.cells)
	r := &repetition{wall: make([]float64, n), outs: make([]*outcome, n), errs: make([]error, n)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, c := range p.cells {
		runtime.GC()
		g.wait()
		start := time.Now()
		r.outs[i], r.errs[i] = runCell(c, tr)
		r.wall[i] = time.Since(start).Seconds()
	}
	runtime.ReadMemStats(&after)
	r.alloc = float64(after.TotalAlloc - before.TotalAlloc)
	return r
}

// fastest returns cell j's shortest host time over reps.
func fastest(reps []*repetition, j int) float64 {
	best := reps[0].wall[j]
	for _, r := range reps[1:] {
		best = math.Min(best, r.wall[j])
	}
	return best
}

// verify checks the repetition's outcomes; the clock is not running.
func (r *repetition) verify(p *plan) {
	for i, err := range p.verify(r.outs) {
		if r.errs[i] == nil {
			r.errs[i] = err
		}
	}
}

// differs describes how two runs of one cell disagree on their exact results
// — simulated time must repeat to the cycle — or returns "" if they agree.
func differs(x, y *outcome) string {
	same := x.virt == y.virt && x.instrs == y.instrs && x.reads == y.reads
	if same && x.run != nil {
		same = x.run.ExitCode == y.run.ExitCode && x.run.OrigInstrs == y.run.OrigInstrs
	}
	if same {
		return ""
	}
	return fmt.Sprintf("%d cycles, %d instrs, %d reads against %d cycles, %d instrs, %d reads",
		x.virt, x.instrs, x.reads, y.virt, y.instrs, y.reads)
}

// diffReps marks on b every cell whose exact results differ from a's, with
// what names the two sides.
func diffReps(a, b *repetition, what string) {
	for i := range a.outs {
		if x, y := a.outs[i], b.outs[i]; x != nil && y != nil && b.errs[i] == nil {
			if d := differs(x, y); d != "" {
				b.errs[i] = fmt.Errorf("%s: %s", what, d)
			}
		}
	}
}

// ------------------------------------------------------------------ run --

func run(w *workload, o options, reg *registry) (*report, error) {
	rep := &report{Workload: w.name, Seed: o.seed, Trace: o.trace, Commit: o.commit,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU()}
	var m metrics
	var err error
	if o.trace == 1 {
		rep.defs = reg.PerLayer
		if m, err = runTraced(w, o, rep, false); err == nil {
			err = microDrives(m, false)
		}
	} else {
		rep.defs = reg.EndToEnd
		m, err = runTimed(w, o, rep, false)
	}
	if err != nil {
		return nil, err
	}
	if err := rep.fill(m, o.trace == 0); err != nil {
		return nil, err
	}
	return rep, nil
}

// runTimed is the untraced run: set-up, then repetitions for --seconds, then
// verification with the clock stopped. small measures the test-scale plan
// (the tests' fast pass).
func runTimed(w *workload, o options, rep *report, small bool) (metrics, error) {
	m := metrics{}
	var g *quietGate
	if !small {
		g = newQuietGate(time.Duration(o.seconds / 2 * float64(time.Second)))
	}

	// Set-up: generate the inputs and run every cell once at test scale, which
	// warms the runtime and every code path a repetition takes. Repeated, and
	// — like every host time here — taken cell by cell from the fastest pass.
	var passes []*repetition
	var sp *plan
	for start := time.Now(); len(passes) < o.setupPasses ||
		(len(passes) < maxSetupPasses && time.Since(start).Seconds() < setupSeconds && o.setupPasses > 1); {
		sp = w.plan(o.seed, true)
		g.wait() // once a pass: its cells take milliseconds, less than a probe
		r := runRep(sp, nil, nil)
		r.verify(sp)
		if n := r.failed(); n > 0 {
			return nil, fmt.Errorf("set-up pass: %d cells failed, first: %v", n, firstErr(r.errs))
		}
		passes = append(passes, r)
	}
	for j := range sp.cells {
		m["setup_s"] += fastest(passes, j)
	}

	p := w.plan(o.seed, small)
	var reps []*repetition
	start := time.Now()
	for {
		r := runRep(p, nil, g)
		reps = append(reps, r)
		spent := time.Since(start).Seconds()
		// Stop once another repetition would overrun --seconds by more than
		// half its length, but never before minReps.
		if len(reps) >= o.minReps && spent+r.total()/2 > o.seconds {
			break
		}
		if spent > (deadline / 2).Seconds() {
			break
		}
	}
	rep.Reps = len(reps)
	if g != nil {
		rep.QuietWaitS, rep.QuietHops, rep.QuietProbeMS = g.waited.Seconds(), g.hops, g.best.Seconds()*1e3
	}

	for i, r := range reps {
		r.verify(p)
		diffReps(reps[0], r, "first repetition against this one")
		rep.count(p, r, fmt.Sprintf("rep %d ", i))
	}

	// Host time: each cell's fastest repetition, summed, over the work the
	// cells did. Interference on a shared host only ever adds time, so the
	// fastest repetition is the steadiest estimate of a cell's own cost; and
	// the work — simulated instructions, or read operations where there is no
	// VM — moves with the seed, so dividing by it keeps seeds comparable.
	var allocs []float64
	var wallMin, wallMedian float64
	var instrs, reads int64
	for j, c := range p.cells {
		var ws []float64
		for _, r := range reps {
			ws = append(ws, r.wall[j])
		}
		cr := cellReport{ID: c.id, WallS: median(ws), WallMinS: fastest(reps, j)}
		wallMin += cr.WallMinS
		wallMedian += cr.WallS
		if out := reps[0].outs[j]; out != nil {
			cr.VirtS = float64(out.virt) / core.CPUHz
			cr.Instrs, cr.Reads = out.instrs, out.reads
			instrs += out.instrs
			reads += out.reads
		}
		rep.Cells = append(rep.Cells, cr)
	}
	ops := instrs
	if ops == 0 {
		ops = reads
	}
	m["host_ns_per_op"] = ratio(wallMin*1e9, float64(ops))
	rep.WallS, rep.WallMedianS, rep.Ops = wallMin, wallMedian, ops
	for _, r := range reps {
		allocs = append(allocs, r.alloc/mb)
		rep.RepWalls = append(rep.RepWalls, r.total())
	}
	m["alloc_mb"] = median(allocs)
	virtMetrics(m, p, reps[0].outs)
	return m, nil
}

// runTraced is the traced run: one composed repetition, one decomposed
// repetition under spans, their cell-for-cell comparison, and the workload's
// own extra drives.
// small runs everything at test scale (the tests' fast pass).
func runTraced(w *workload, o options, rep *report, small bool) (metrics, error) {
	m := metrics{}
	runRep(w.plan(o.seed, true), nil, nil) // warm the runtime, as the timed run's set-up does
	p := w.plan(o.seed, small)
	var g *quietGate
	if !small {
		g = newQuietGate(5 * time.Second)
	}

	// Composed, traced, composed again: the first full-scale repetition of a
	// process runs cold, so the tracing overhead is taken against the second
	// composed repetition and the first only serves the comparison of paths.
	composed := runRep(p, nil, g)
	tr := newTracer()
	endRoot := tr.begin("workload")
	endRep := tr.begin("rep")
	traced := runRep(p, tr, g)
	endRep()
	endRoot()
	tracedWall := tr.seconds("rep")
	// Both paths must have simulated one program, cell for cell.
	diffReps(composed, traced, "composed path against decomposed")
	start := time.Now()
	composed.verify(p)
	traced.verify(p)
	m["harness.verify_s"] = time.Since(start).Seconds()
	layerCounts(m, p, traced.outs)
	layerTimes(m, p, tr, traced.outs, tracedWall)
	if p.layers != nil {
		p.layers(m, tr, traced.outs) // before the next repetition resets the plan
	}
	composedWall := runRep(p, nil, g).total()

	for _, r := range []*repetition{composed, traced} {
		rep.count(p, r, "")
	}
	rep.Reps = 1
	if err := checkBuckets(m); err != nil {
		return nil, err
	}
	var err error
	if m["harness.peak_rss_mb"], err = peakRSS(); err != nil { // before the extras, which may run cells side by side
		return nil, err
	}
	m["harness.build_s"] = o.buildS
	m["harness.rep_wall_s"] = composedWall
	m["harness.trace_overhead_pct"] = 100 * (tracedWall - composedWall) / composedWall

	// Self times sum to the root span by construction, so a gap between them
	// and the traced wall means a span was left unbalanced.
	var self time.Duration
	for name, d := range tr.selfTimes() {
		if name != "workload" {
			self += d
		}
	}
	if gap := (self.Seconds() - tracedWall) / tracedWall; gap > 0.02 || gap < -0.02 {
		return nil, fmt.Errorf("self times sum to %.4f s, traced wall is %.4f s", self.Seconds(), tracedWall)
	}
	rep.SelfTable = tr.selfTable()
	data, err := tr.chromeJSON()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	rep.TraceFile = o.outDir + "/trace_" + w.name + ".json"
	if err := os.WriteFile(rep.TraceFile, data, 0o644); err != nil {
		return nil, err
	}

	if p.extras != nil {
		if err := p.extras(m, p, composedWall); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// peakRSS returns the process's resident-set high-water mark in MB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
