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

// Mutator adjusts a configuration before a run (disk count, cache size...).
type Mutator func(*core.Config)

// Run executes one app in one mode with an optional config mutation, on a
// substrate of its own over the shared built workload.
func Run(app apps.App, mode core.Mode, scale apps.Scale, mutate Mutator) (*core.RunStats, *apps.Bundle, error) {
	sys, b, err := newSystem(app, mode, scale, mutate)
	if err != nil {
		return nil, nil, err
	}
	st, err := sys.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("bench: %v %v: %w", app, mode, err)
	}
	return st, b, nil
}

// newSystem builds the workload and the configured System that Run runs.
func newSystem(app apps.App, mode core.Mode, scale apps.Scale, mutate Mutator) (*core.System, *apps.Bundle, error) {
	b, err := apps.Build(app, scale)
	if err != nil {
		return nil, nil, err
	}
	var prog *vm.Program
	switch mode {
	case core.ModeNoHint:
		prog = b.Original
	case core.ModeSpeculating:
		prog = b.Transformed
	case core.ModeManual:
		prog = b.Manual
	case core.ModeStatic:
		// Static mode runs the unmodified binary; the hints come from the
		// offline synthesis cached in the bundle.
		prog = b.Original
	default:
		return nil, nil, fmt.Errorf("bench: bad mode %v", mode)
	}
	cfg := core.DefaultConfig(mode)
	if mode == core.ModeStatic {
		synth, err := Synth(b)
		if err != nil {
			return nil, nil, err
		}
		cfg.StaticHints = StaticHints(synth)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := core.New(cfg, prog, b.FS)
	return sys, b, err
}

// Triple holds one app's three runs under a single configuration.
type Triple struct {
	App    apps.App
	Orig   *core.RunStats
	Spec   *core.RunStats
	Manual *core.RunStats
	Bundle *apps.Bundle // from the speculating run (transform stats)
}

// RunTriple runs all three variants of app. The three runs are
// independent simulations (each builds its own workload and substrate),
// so they fan out across the worker pool.
func RunTriple(app apps.App, scale apps.Scale, mutate Mutator) (*Triple, error) {
	triples, err := runTripleGrid(1, func(int) (apps.App, apps.Scale, Mutator) {
		return app, scale, mutate
	})
	if err != nil {
		return nil, err
	}
	return triples[0], nil
}

// tripleModes is the fixed mode order of a triple's three runs.
var tripleModes = [3]core.Mode{core.ModeNoHint, core.ModeSpeculating, core.ModeManual}

// runTripleGrid runs n triples — spec(i) names the i'th — as one flat
// 3n-cell fan-out, so the worker pool sees every (config, mode) run at
// once instead of three at a time. Results come back in spec order.
func runTripleGrid(n int, spec func(i int) (apps.App, apps.Scale, Mutator)) ([]*Triple, error) {
	type cell struct {
		st *core.RunStats
		b  *apps.Bundle
	}
	cells, err := parMap(3*n, func(j int) (cell, error) {
		app, scale, mutate := spec(j / 3)
		st, b, err := Run(app, tripleModes[j%3], scale, mutate)
		return cell{st, b}, err
	})
	if err != nil {
		return nil, err
	}
	triples := make([]*Triple, n)
	for i := range triples {
		app, _, _ := spec(i)
		t := &Triple{App: app,
			Orig:   cells[3*i].st,
			Spec:   cells[3*i+1].st,
			Manual: cells[3*i+2].st,
			Bundle: cells[3*i+1].b}
		// Correctness invariant: all variants must compute the same result.
		if t.Orig.ExitCode != t.Spec.ExitCode || t.Orig.ExitCode != t.Manual.ExitCode {
			return nil, fmt.Errorf("bench: %v exit codes diverge: orig %d spec %d manual %d",
				app, t.Orig.ExitCode, t.Spec.ExitCode, t.Manual.ExitCode)
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
