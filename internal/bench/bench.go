// Package bench regenerates every table and figure in the paper's
// evaluation (§4). Each experiment builds its workloads and programs (once
// per (app, scale): built workloads are immutable and shared), runs the
// relevant configurations through the core runtime, each on a substrate of
// its own, and formats rows the way the paper reports them.
//
// Absolute numbers come from the simulated testbed and are not expected to
// match the paper's hardware; the shapes — who wins, by roughly what factor,
// where the crossovers fall — are the reproduction targets (see
// EXPERIMENTS.md).
package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"spechint/internal/apps"
	"spechint/internal/core"
	"spechint/internal/par"
	"spechint/internal/vm"
)

// Apps is the benchmark suite order used by every table.
var Apps = []apps.App{apps.Agrep, apps.Gnuld, apps.XDataSlice}

// Parallelism is the worker-pool width the sweep experiments hand to the
// fan-out engine (internal/par). The default is one worker per CPU;
// tipbench's -parallel flag overrides it, and -parallel 1 reproduces
// strictly serial execution. It is set once before experiments run, not
// mutated mid-sweep.
//
// The determinism contract: every experiment's output is byte-identical
// at any width, because cells share nothing mutable (a substrate per cell;
// built workloads — programs and file systems — are immutable and shared)
// and results are assembled in index order regardless of completion order.
var Parallelism = runtime.NumCPU()

// parMap fans n independent cells out over the configured worker pool,
// returning results in index order; the error (if any) is the
// lowest-indexed cell's, independent of scheduling.
func parMap[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return par.MapErr(Parallelism, n, fn)
}

// Mutator adjusts a configuration before a Run. Only Run and bench/perf use
// it: every experiment names its runs as Cells. ROADMAP item 9(a) deletes it
// together with Run.
type Mutator func(*core.Config)

// Run executes one app in one mode with an optional config mutation, on a
// substrate of its own over the shared built workload. It is uncached on
// purpose: bench/perf times it call by call, so each call simulates.
func Run(app apps.App, mode core.Mode, scale apps.Scale, mutate Mutator) (*core.RunStats, *apps.Bundle, error) {
	p, err := prepare(Cell{App: app, Mode: mode, Scale: scale})
	if err != nil {
		return nil, nil, err
	}
	if mutate != nil {
		mutate(&p.cfg)
	}
	st, err := p.run()
	return st, p.b, err
}

// Limiter selects a §5 erroneous-hint limiter.
type Limiter uint8

const (
	NoLimiter       Limiter = iota
	FixedLimiter            // the ad-hoc cancel throttle
	AdaptiveLimiter         // the accuracy-gated throttle
)

// Cell names one run as data: the workload, and the few knobs the
// experiments vary on top of core.DefaultConfig, which is the zero value.
// Under the determinism contract a run is a pure function of its Cell, so
// Run on a Cell simulates it once per process (see cellTable).
type Cell struct {
	App   apps.App
	Mode  core.Mode
	Scale apps.Scale // carries the Postgres selectivity

	Disks       int     // disks in the array; 0 is the default 4
	CacheMB     int     // file cache; 0 is the default 12 MB
	SpeedRatio  int     // Figure 6's processor/disk speed ratio; 0 is off
	COWRegion   int     // copy-on-write region bytes; 0 is the default
	IgnoreHints bool    // TIP ignores every hint (Figure 4)
	Limiter     Limiter // §5 erroneous-hint limiter
	DualCPU     bool    // the speculating thread gets a second processor
	FaultRate   float64 // seeded transient disk faults (faultPlan); 0 is none
}

// apply sets c's knobs on cfg. The fault plan is stateful, so each run gets
// a fresh one.
func (c Cell) apply(cfg *core.Config) {
	if c.Disks != 0 {
		cfg.Disk = core.TestbedDisk(c.Disks)
	}
	if c.CacheMB != 0 {
		cfg.TIP.CacheBlocks = c.CacheMB << 20 / cfg.Disk.BlockSize
	}
	if r := c.SpeedRatio; r != 0 {
		// Completion notification is delayed by the ratio, and TIP keeps at
		// most one prefetch outstanding per disk, as the paper configured.
		cfg.Disk.DelayFactor = r
		cfg.TIP.MaxDepthPerDisk, cfg.TIP.RADepthPerDisk = 1, 1
		cfg.MaxCycles *= int64(r)
	}
	if c.COWRegion != 0 {
		cfg.Machine.COWRegion = c.COWRegion
	}
	cfg.TIP.IgnoreHints = c.IgnoreHints
	switch c.Limiter {
	case FixedLimiter:
		cfg.CancelThrottle = 2
		cfg.CancelThrottleCycles = 500_000_000
	case AdaptiveLimiter:
		cfg.AdaptiveThrottle = true
	}
	cfg.DualProcessor = c.DualCPU
	if c.FaultRate > 0 {
		cfg.Faults = faultPlan(c.FaultRate)
	}
}

// key is c's canonical form: a knob set to its default reads as unset, so
// Cell{Disks: 4} and Cell{} are one cell.
func (c Cell) key() Cell {
	d := core.DefaultConfig(c.Mode)
	if c.Disks == d.Disk.NumDisks {
		c.Disks = 0
	}
	if c.CacheMB<<20/d.Disk.BlockSize == d.TIP.CacheBlocks {
		c.CacheMB = 0
	}
	if c.COWRegion == d.Machine.COWRegion {
		c.COWRegion = 0
	}
	return c
}

// cellTable is the process-wide memo of simulated cells, and cellAsks counts
// every Run on a Cell, so asks minus entries is the reuse. cellKeys holds
// every key simulated: the rows of the cell ledger, bench/golden/cells.txt.
var (
	cellTable = par.NewCache[Cell, *core.RunStats]()
	cellAsks  atomic.Int64
	cellKeys  sync.Map
)

// Run returns c's statistics, simulating c on the first ask in this process.
// The stats are shared by every asker and must not be modified.
func (c Cell) Run() (*core.RunStats, error) {
	cellAsks.Add(1)
	k := c.key()
	return cellTable.Get(k, func() (*core.RunStats, error) {
		cellKeys.Store(k, true)
		p, err := prepare(k)
		if err != nil {
			return nil, err
		}
		return p.run()
	})
}

// CellCounts reports how many cells this process simulated and how many asks
// the table answered from an earlier run.
func CellCounts() (simulated, reused int) {
	n := cellTable.Len()
	return n, int(cellAsks.Load()) - n
}

// runCells runs cs across the worker pool, returning stats in cs order.
func runCells(cs []Cell) ([]*core.RunStats, error) {
	return parMap(len(cs), func(i int) (*core.RunStats, error) { return cs[i].Run() })
}

// prepared is one run ready to start: its workload, its program and its
// configuration. Runs that carry state — Run's mutator, TraceRun's trace,
// roundTrip's captures — set it on cfg before run; they are not cells.
type prepared struct {
	b    *apps.Bundle
	prog *vm.Program
	cfg  core.Config
}

// prepare builds c's workload and configuration.
func prepare(c Cell) (*prepared, error) {
	b, err := apps.Build(c.App, c.Scale)
	if err != nil {
		return nil, err
	}
	// Static mode runs the unmodified binary; the hints come from the
	// offline synthesis (synthFor).
	prog := map[core.Mode]*vm.Program{core.ModeNoHint: b.Original, core.ModeSpeculating: b.Transformed,
		core.ModeManual: b.Manual, core.ModeStatic: b.Original}[c.Mode]
	if prog == nil {
		return nil, fmt.Errorf("bench: bad mode %v", c.Mode)
	}
	p := &prepared{b: b, prog: prog, cfg: core.DefaultConfig(c.Mode)}
	if c.Mode == core.ModeStatic {
		synth, err := synthFor(c.App, c.Scale)
		if err != nil {
			return nil, err
		}
		p.cfg.StaticHints = StaticHints(synth)
	}
	c.apply(&p.cfg)
	return p, nil
}

// run simulates the prepared run on a substrate of its own.
func (p *prepared) run() (*core.RunStats, error) {
	sys, err := core.New(p.cfg, p.prog, p.b.FS)
	if err != nil {
		return nil, err
	}
	st, err := sys.Run()
	if err != nil {
		return nil, fmt.Errorf("bench: %v %v: %w", p.b.App, p.cfg.Mode, err)
	}
	return st, nil
}

// Triple holds one app's three runs under a single configuration.
type Triple struct {
	App    apps.App
	Orig   *core.RunStats
	Spec   *core.RunStats
	Manual *core.RunStats
}

// runs is the triple's three runs in tripleModes order.
func (t *Triple) runs() [3]*core.RunStats { return [3]*core.RunStats{t.Orig, t.Spec, t.Manual} }

// RunTriple runs c in all three variants (c.Mode is ignored).
func RunTriple(c Cell) (*Triple, error) {
	triples, err := runTriples([]Cell{c})
	if err != nil {
		return nil, err
	}
	return triples[0], nil
}

// tripleModes is the fixed mode order of a triple's three runs.
var tripleModes = [3]core.Mode{core.ModeNoHint, core.ModeSpeculating, core.ModeManual}

// runTriples runs every cell of cs in the three triple modes as one flat
// 3n-cell fan-out, so the worker pool sees every run at once. Results come
// back in cs order.
func runTriples(cs []Cell) ([]*Triple, error) {
	all := make([]Cell, 0, 3*len(cs))
	for _, c := range cs {
		for _, m := range tripleModes {
			c.Mode = m
			all = append(all, c)
		}
	}
	runs, err := runCells(all)
	if err != nil {
		return nil, err
	}
	triples := make([]*Triple, len(cs))
	for i, c := range cs {
		t := &Triple{App: c.App, Orig: runs[3*i], Spec: runs[3*i+1], Manual: runs[3*i+2]}
		// Correctness invariant: all variants must compute the same result.
		if t.Orig.ExitCode != t.Spec.ExitCode || t.Orig.ExitCode != t.Manual.ExitCode {
			return nil, fmt.Errorf("bench: %v exit codes diverge: orig %d spec %d manual %d",
				c.App, t.Orig.ExitCode, t.Spec.ExitCode, t.Manual.ExitCode)
		}
		triples[i] = t
	}
	return triples, nil
}

// Improvement returns the percent reduction in elapsed time of st vs base.
// A zero-elapsed base (possible under degenerate workloads or a fault plan
// that kills a run instantly) returns 0 rather than ±Inf/NaN — non-finite
// floats would make encoding/json reject whole sweep exports.
func Improvement(base, st *core.RunStats) float64 {
	if base.Elapsed == 0 {
		return 0
	}
	return 100 * (1 - float64(st.Elapsed)/float64(base.Elapsed))
}
