// Package multi is the multiprogramming layer: it runs N concurrent
// processes — any mix of the benchmark applications in any mode — on one
// shared substrate (one virtual clock, one disk array, one file system, one
// TIP manager and block cache), which is the regime the paper's TIP was
// actually built for.
//
// Scheduling is core's (core.RunGroup): round-robin over the original threads
// with a fixed CPU quantum, and the paper's strict-priority contract held
// *globally* — speculation consumes cycles only when every original thread in
// the group is blocked. This package assembles the workload and reports the
// outcome. Each process holds its own TIP client, so hint streams, accuracy
// estimates and CANCEL_ALLs stay per process while the cache arbitrates
// buffers between them by cost-benefit (see internal/tip and internal/cache).
package multi

import (
	"fmt"

	"spechint/internal/apps"
	"spechint/internal/cache"
	"spechint/internal/core"
	"spechint/internal/disk"
	"spechint/internal/fsim"
	"spechint/internal/sim"
	"spechint/internal/tip"
	"spechint/internal/workload"
)

// ProcSpec names one process of the group.
type ProcSpec struct {
	App  apps.App
	Mode core.Mode
}

func (p ProcSpec) String() string { return fmt.Sprintf("%v/%v", p.App, p.Mode) }

const (
	// quantum is the round-robin CPU slice in cycles (~0.4 ms of testbed
	// time).
	quantum = 100_000

	// seedStep offsets each process's workload seeds so N processes run N
	// distinct workload instances.
	seedStep = 101
)

// Config assembles a process group.
type Config struct {
	// Node is the shared substrate: one array, one manager and cache. Its
	// fault plan hits every process in the group (a disk death degrades the
	// whole substrate, not one victim); with a trace, each process gets its
	// own lane (named like "p0:gnuld/speculating") alongside the shared tip,
	// cache and per-disk lanes, and the substrate gauges are sampled on
	// virtual-time ticks. Tracing never changes cycle counts.
	core.Node

	// FirstProcIndex numbers the group's processes starting here (default
	// 0). Solo baseline runs use it to rebuild process i's exact workload
	// — same prefix, same seeds — in a group of one.
	FirstProcIndex int

	// MaxCycles aborts a runaway simulation. Zero means no limit.
	MaxCycles int64
}

// DefaultConfig mirrors the paper's testbed: four disks, 12 MB shared cache.
func DefaultConfig() Config {
	return Config{Node: core.Node{Disk: core.TestbedDisk(4), TIP: tip.DefaultConfig()}}
}

// Group is a configured multiprogramming run.
type Group struct {
	cfg   Config
	sub   *core.Substrate
	specs []ProcSpec
	procs []*core.System
}

// NewGroup builds the shared substrate, lays each process's workload onto
// the shared file system (disjoint per-process file sets, offset seeds), and
// instantiates one core.System per process.
func NewGroup(cfg Config, scale apps.Scale, specs []ProcSpec) (*Group, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("multi: empty process list")
	}
	if cfg.Disk.BlockSize <= 0 {
		// fsim.New panics on it before core.NewSubstrateOn could say so.
		return nil, fmt.Errorf("multi: disk BlockSize = %d, want > 0", cfg.Disk.BlockSize)
	}
	fs := fsim.New(cfg.Disk.BlockSize)
	workload.SetBenchLayout(fs)
	sub, err := core.NewSubstrateOn(sim.NewQueue(), cfg.Node, fs)
	if err != nil {
		return nil, err
	}
	sub.AddGauges()
	g := &Group{cfg: cfg, sub: sub, specs: specs}

	for i, spec := range specs {
		idx := cfg.FirstProcIndex + i
		ps := scale.WithProcess(idx, seedStep)
		b, err := apps.BuildOn(fs, spec.App, ps)
		if err != nil {
			return nil, fmt.Errorf("multi: p%d %v: %w", idx, spec, err)
		}
		var prog = b.Original
		switch spec.Mode {
		case core.ModeSpeculating:
			prog = b.Transformed
		case core.ModeManual:
			prog = b.Manual
		case core.ModeStatic:
			// The hint list comes from the synthesizer (bench.Synth), which
			// multi cannot run; the original binary without it would run
			// unhinted under a "static" label.
			return nil, fmt.Errorf("multi: p%d %v: static mode is not supported in a group (no synthesized hints)", idx, spec)
		}
		sys, err := core.NewOn(sub, core.DefaultConfig(spec.Mode).Proc, prog, fmt.Sprintf("p%d:%v", idx, spec))
		if err != nil {
			return nil, fmt.Errorf("multi: p%d %v: %w", idx, spec, err)
		}
		g.procs = append(g.procs, sys)
	}
	return g, nil
}

// Run executes the group to completion under core's strict-priority
// scheduler (see core.RunGroup) and assembles the group outcome. A group runs
// once: Run releases every process's machine memory when it returns.
func (g *Group) Run() (*Result, error) {
	defer func() {
		for _, p := range g.procs {
			p.Release()
		}
	}()
	stats, err := core.RunGroup(g.procs, quantum, g.cfg.MaxCycles)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Makespan: g.sub.Clk.Now(),
		Tip:      g.sub.TIP.Stats(),
		Cache:    g.sub.TIP.Cache().Stats(),
		Disk:     g.sub.Arr.Stats(),
	}
	for i, p := range g.procs {
		res.Procs = append(res.Procs, ProcResult{
			Name: p.Name(), App: g.specs[i].App, Mode: g.specs[i].Mode, Stats: stats[i],
		})
	}
	return res, nil
}

// ProcResult is one process's outcome. Stats.Elapsed is the process's own
// completion time (its turnaround under contention); Stats.Tip is its private
// hint stream.
type ProcResult struct {
	Name  string
	App   apps.App
	Mode  core.Mode
	Stats *core.RunStats
}

// Result is the group outcome.
type Result struct {
	Procs    []ProcResult
	Makespan sim.Time // completion time of the last process

	// Substrate-wide aggregates.
	Tip   tip.Stats
	Cache cache.Stats
	Disk  disk.Stats
}

// Seconds converts the makespan to testbed seconds.
func (r *Result) Seconds() float64 { return float64(r.Makespan) / core.CPUHz }

// Throughput returns completed processes per testbed second.
func (r *Result) Throughput() float64 {
	s := r.Seconds()
	if s == 0 {
		return 0
	}
	return float64(len(r.Procs)) / s
}

// JainIndex is Jain's fairness index over xs: (Σx)² / (n·Σx²), 1.0 when all
// values are equal, approaching 1/n when one dominates. The multi experiment
// applies it to per-process slowdowns.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
