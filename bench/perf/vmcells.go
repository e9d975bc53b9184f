package main

import (
	"fmt"

	"spechint/internal/apps"
	"spechint/internal/asm"
	"spechint/internal/bench"
	"spechint/internal/clients"
	"spechint/internal/cluster"
	"spechint/internal/core"
	"spechint/internal/fsim"
	"spechint/internal/multi"
	"spechint/internal/spechint"
	"spechint/internal/trace"
	"spechint/internal/vm"
	inputs "spechint/internal/workload"
)

// cell is one simulated run of a workload: one (app, config, mode) of the
// VM workloads, one group of multi_mix, one arm of cluster_overload. Cells of
// one group share a configuration and differ only in arm.
type cell struct {
	id    string // "Gnuld/d=1/manual"
	group string // "Gnuld/d=1"
	arm   string // "original", "speculating", ... or "capacity", "nohints", ...
	disks int    // disks the cell simulates, the base of disk utilisation

	// run simulates the cell. With a nil tracer it takes the composed path a
	// tipbench user takes; with a tracer it calls each layer's public
	// function itself, one span per call.
	run func(tr *tracer) (*outcome, error)
}

// outcome is what one cell produced. The VM workloads fill run, multi_mix
// fills group, cluster_overload fills cluster and pop.
type outcome struct {
	virt   int64 // simulated elapsed cycles
	instrs int64 // original + speculating instructions (0 without a VM)
	reads  int64 // application read operations, served or failed

	run     *core.RunStats
	group   *multi.Result
	cluster *cluster.Result
	pop     *clients.Population

	fsBlocks int64 // blocks in the cell's file system (traced path only)
	srcBytes int64 // assembly source generated for the cell (traced path only)
}

// runOutcome keeps a copy of st: the *core.RunStats a run returns points into
// its core.System, so holding it would pin the machine and the whole file
// system (half a gigabyte for one XDataSlice cell) for as long as the
// outcome lives.
func runOutcome(st *core.RunStats) *outcome {
	cp := *st
	return &outcome{virt: int64(st.Elapsed), instrs: st.OrigInstrs + st.SpecInstrs, reads: st.ReadCalls, run: &cp}
}

// withSeed offsets every workload spec's seed, so one --seed moves every
// generated input.
func withSeed(s apps.Scale, seed int64) apps.Scale {
	s.Agrep.Seed += seed
	s.Gnuld.Seed += seed
	s.XDS.Seed += seed
	s.Postgres.Seed += seed
	s.LSM.Seed += seed
	s.MLShard.Seed += seed
	return s
}

// progSet mirrors one entry of apps' program cache for the traced path: the
// composed path assembles and transforms once per (app, scale) and
// repetition, so the decomposed path must too or the two would not measure
// the same work.
type progSet struct {
	orig, man, transformed *vm.Program
	tstats                 spechint.Stats
}

type progKey struct {
	app   apps.App
	scale apps.Scale
}

// vmRunner runs solo VM cells; reset empties both program caches and is
// called at the start of every repetition.
type vmRunner struct {
	progs map[progKey]*progSet
}

func (r *vmRunner) reset() {
	apps.ResetProgramCache()
	r.progs = map[progKey]*progSet{}
}

// cell returns the cell that runs app in mode at scale under mutate.
func (r *vmRunner) cell(group string, app apps.App, mode core.Mode, scale apps.Scale, mutate bench.Mutator) cell {
	cfg := core.DefaultConfig(mode)
	if mutate != nil {
		mutate(&cfg)
	}
	return cell{id: group + "/" + mode.String(), group: group, arm: mode.String(), disks: cfg.Disk.NumDisks,
		run: func(tr *tracer) (*outcome, error) {
			if tr != nil {
				return r.traced(tr, app, mode, scale, mutate)
			}
			st, _, err := bench.Run(app, mode, scale, mutate)
			if err != nil {
				return nil, err
			}
			return runOutcome(st), nil
		}}
}

// sources builds app's workload on fs and generates both assembly variants,
// the first two steps of apps.BuildOn under one span each.
func sources(tr *tracer, fs *fsim.FS, app apps.App, scale apps.Scale) (orig, man string, err error) {
	end := tr.begin("workload.build")
	span := "apps.source"
	var gen func(manual bool) string
	switch app {
	case apps.Agrep:
		names := scale.Agrep.Build(fs)
		gen = func(m bool) string { return apps.AgrepSource(names, scale.Agrep.Pattern, m) }
	case apps.Gnuld:
		names := scale.Gnuld.Build(fs)
		gen = func(m bool) string { return apps.GnuldSource(names, scale.Gnuld, m) }
	case apps.XDataSlice:
		name, slices := scale.XDS.Build(fs)
		gen = func(m bool) string { return apps.XDSSource(name, slices, m) }
	case apps.LSM:
		t := scale.LSM.Build(fs)
		span, gen = "trace.source", func(m bool) string { return trace.Source(t, m) }
	case apps.MLShard:
		t := scale.MLShard.Build(fs)
		span, gen = "trace.source", func(m bool) string { return trace.Source(t, m) }
	}
	end()
	if gen == nil {
		return "", "", fmt.Errorf("perf: no traced path for %v", app)
	}
	end = tr.begin(span)
	orig, man = gen(false), gen(true)
	end()
	return orig, man, nil
}

// traced is bench.Run taken apart: workload build, source generation,
// assemble, transform, synthesis, core.New and Run each under its own span.
func (r *vmRunner) traced(tr *tracer, app apps.App, mode core.Mode, scale apps.Scale, mutate bench.Mutator) (*outcome, error) {
	fs := fsim.New(8192)
	inputs.SetBenchLayout(fs)
	origSrc, manSrc, err := sources(tr, fs, app, scale)
	if err != nil {
		return nil, err
	}

	key := progKey{app, scale}
	ps := r.progs[key]
	if ps == nil {
		end := tr.begin("asm.assemble")
		orig, err := asm.Assemble(origSrc)
		if err != nil {
			return nil, fmt.Errorf("perf: %v original: %w", app, err)
		}
		man, err := asm.Assemble(manSrc)
		if err != nil {
			return nil, fmt.Errorf("perf: %v manual: %w", app, err)
		}
		end()
		end = tr.begin("spechint.transform")
		tp, tstats, err := spechint.Transform(orig, spechint.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("perf: %v transform: %w", app, err)
		}
		end()
		ps = &progSet{orig: orig, man: man, transformed: tp, tstats: tstats}
		r.progs[key] = ps
	}

	prog := ps.orig
	switch mode {
	case core.ModeSpeculating:
		prog = ps.transformed
	case core.ModeManual:
		prog = ps.man
	}
	cfg := core.DefaultConfig(mode)
	if mode == core.ModeStatic {
		end := tr.begin("analysis.synth")
		synth, err := bench.Synth(&apps.Bundle{App: app, FS: fs,
			Original: ps.orig, Transformed: ps.transformed, Manual: ps.man, Transform: ps.tstats})
		if err != nil {
			return nil, err
		}
		cfg.StaticHints = bench.StaticHints(synth)
		end()
	}
	if mutate != nil {
		mutate(&cfg)
	}
	end := tr.begin("core.new")
	sys, err := core.New(cfg, prog, fs)
	if err != nil {
		return nil, err
	}
	end()
	end = tr.begin("core.run." + mode.String())
	st, err := sys.Run()
	if err != nil {
		return nil, fmt.Errorf("perf: %v %v: %w", app, mode, err)
	}
	end()

	out := runOutcome(st)
	out.fsBlocks = fs.TotalBlocks()
	out.srcBytes = int64(len(origSrc) + len(manSrc))
	return out, nil
}
