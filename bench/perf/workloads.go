package main

import (
	"fmt"
	"math"

	"spechint/internal/apps"
	"spechint/internal/bench"
	"spechint/internal/clients"
	"spechint/internal/cluster"
	"spechint/internal/core"
	"spechint/internal/fault"
	"spechint/internal/multi"
	"spechint/internal/sim"
)

// workload is one named set of inputs. plan generates its cells from a seed;
// small selects the test-scale variant the set-up pass and the tests run.
// why must match BENCHMARK.json (the tests compare them).
type workload struct {
	name string
	why  string
	plan func(seed int64, small bool) *plan
}

// plan is one workload instantiated for one seed.
type plan struct {
	cells []cell

	// reset runs, untimed, at the start of every repetition.
	reset func()

	// verify checks one repetition's outcomes after the clock has stopped
	// and returns one error slot per cell (nil = correct). outs[i] is nil
	// where cell i already failed.
	verify func(outs []*outcome) []error

	// ratios returns, for every hinted-versus-unhinted comparison the
	// workload makes, hinted virtual time ÷ unhinted virtual time. Above 1
	// means a hinted mode lost.
	ratios func(outs []*outcome) []float64

	// layers adds the workload's own per-layer metrics from a traced
	// repetition; extras runs the workload's additional traced-run-only
	// drives. Either may be nil.
	layers func(m metrics, tr *tracer, outs []*outcome)
	extras func(m metrics, p *plan, composedWall float64) error
}

var workloads = []workload{
	{"sweep_disks", "many short cells that each rebuild their inputs; disk count varies TIP and disk load", sweepDisks},
	{"replay_modern", "few long cells spent almost wholly in the VM interpreter; input construction is negligible", replayModern},
	{"multi_mix", "four processes time-sliced on one shared cache and array by the multi scheduler", multiMix},
	{"cluster_overload", "no VM work: a client population drives sharded TIP through hints, admission and failover", clusterOverload},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ------------------------------------------------------- VM solo workloads --

var tripleModes = []core.Mode{core.ModeNoHint, core.ModeSpeculating, core.ModeManual}
var replayModes = []core.Mode{core.ModeNoHint, core.ModeSpeculating, core.ModeManual, core.ModeStatic}

// sweepDisksCounts is Figure 5's disk axis at its ends and the testbed's 4.
var sweepDisksCounts = []int{1, 2, 4, 10}

func sweepDisks(seed int64, small bool) *plan {
	scale := apps.SweepScale()
	if small {
		scale = apps.TestScale()
	}
	scale = withSeed(scale, seed)
	r := &vmRunner{}
	p := vmPlan(r)
	for _, app := range bench.Apps {
		for _, d := range sweepDisksCounts {
			d := d
			group := fmt.Sprintf("%v/d=%d", app, d)
			for _, mode := range tripleModes {
				p.cells = append(p.cells, r.cell(group, app, mode, scale,
					func(c *core.Config) { c.Disk = core.TestbedDisk(d) }))
			}
		}
	}
	p.extras = func(m metrics, p *plan, composedWall float64) error {
		if err := parSpeedup(m, p, composedWall); err != nil {
			return err
		}
		return tipstackReplay(m, bench.Apps, scale)
	}
	return p
}

func replayModern(seed int64, small bool) *plan {
	scale := apps.FullScale()
	if small {
		scale = apps.TestScale()
	}
	scale = withSeed(scale, seed)
	// The 16 KB loader is the suite's default batch size, over half the
	// shards and one epoch so a repetition fits the run four times; the
	// 128 KB loader is the batch size PR 10 sized around because hinted reads
	// lose there.
	ml16, ml128 := scale, scale
	ml16.MLShard.ReadSize, ml16.MLShard.Epochs = 16<<10, 1
	if !small {
		ml16.MLShard.Shards /= 2
	}
	ml128.MLShard.ReadSize, ml128.MLShard.Epochs = 128<<10, 2

	r := &vmRunner{}
	p := vmPlan(r)
	for _, g := range []struct {
		group string
		app   apps.App
		scale apps.Scale
	}{{"LSM", apps.LSM, scale}, {"MLShard/16KB", apps.MLShard, ml16}, {"MLShard/128KB", apps.MLShard, ml128}} {
		for _, mode := range replayModes {
			p.cells = append(p.cells, r.cell(g.group, g.app, mode, g.scale, nil))
		}
	}
	p.extras = func(m metrics, _ *plan, _ float64) error {
		return tipstackReplay(m, bench.ModernApps, ml16)
	}
	return p
}

// vmPlan is the part of a plan every solo VM workload shares.
func vmPlan(r *vmRunner) *plan {
	p := &plan{reset: r.reset}
	p.verify = func(outs []*outcome) []error {
		errs := make([]error, len(outs))
		base := map[string]*core.RunStats{} // first finished run of each group
		for i, o := range outs {
			if o == nil {
				continue
			}
			st := o.run
			if got := st.Buckets.Total(); got != int64(st.Elapsed) {
				errs[i] = fmt.Errorf("stall buckets sum to %d, elapsed is %d", got, st.Elapsed)
				continue
			}
			b, ok := base[p.cells[i].group]
			if !ok {
				base[p.cells[i].group] = st
				continue
			}
			if st.ExitCode != b.ExitCode || st.Output != b.Output {
				errs[i] = fmt.Errorf("exit %d, output %q; the group's first run had exit %d, output %q",
					st.ExitCode, st.Output, b.ExitCode, b.Output)
			}
		}
		return errs
	}
	p.ratios = func(outs []*outcome) []float64 {
		var rs []float64
		base := map[string]int64{}
		for i, o := range outs {
			if o == nil {
				continue
			}
			c := p.cells[i]
			if c.arm == core.ModeNoHint.String() {
				base[c.group] = o.virt
			} else if b := base[c.group]; b > 0 {
				rs = append(rs, float64(o.virt)/float64(b))
			}
		}
		return rs
	}
	p.layers = func(m metrics, _ *tracer, outs []*outcome) {
		m["par.cache_builds"] = float64(len(r.progs))
	}
	return p
}

// -------------------------------------------------------------- multi_mix --

// multiMixApps is the group: two Agreps bracket the cache-hungry XDataSlice
// and the pointer-chasing Gnuld, so the round-robin scheduler always has a
// short compute-bound quantum to interleave with long stalls.
var multiMixApps = []apps.App{apps.Agrep, apps.XDataSlice, apps.Gnuld, apps.Agrep}

func multiMix(seed int64, small bool) *plan {
	scale := apps.FullScale()
	if small {
		scale = apps.TestScale()
	}
	scale = withSeed(scale, seed)
	cfg := multi.DefaultConfig()

	group := func(tr *tracer, c multi.Config, mode core.Mode, members []apps.App) (*multi.Result, error) {
		specs := make([]multi.ProcSpec, len(members))
		for i, app := range members {
			specs[i] = multi.ProcSpec{App: app, Mode: mode}
		}
		end := tr.begin("multi.new")
		g, err := multi.NewGroup(c, scale, specs)
		if err != nil {
			return nil, err
		}
		end()
		end = tr.begin("multi.run." + mode.String())
		res, err := g.Run()
		if err != nil {
			return nil, err
		}
		end()
		return res, nil
	}

	p := &plan{reset: apps.ResetProgramCache}
	for _, mode := range []core.Mode{core.ModeNoHint, core.ModeSpeculating} {
		mode := mode
		p.cells = append(p.cells, cell{id: "mix4/" + mode.String(), group: "mix4", arm: mode.String(), disks: cfg.Disk.NumDisks,
			run: func(tr *tracer) (*outcome, error) {
				res, err := group(tr, cfg, mode, multiMixApps)
				if err != nil {
					return nil, err
				}
				o := &outcome{virt: int64(res.Makespan), group: res}
				for j, pr := range res.Procs {
					o.instrs += pr.Stats.OrigInstrs + pr.Stats.SpecInstrs
					o.reads += pr.Stats.ReadCalls
					cp := *pr.Stats // see runOutcome
					res.Procs[j].Stats = &cp
				}
				return o, nil
			}})
	}

	// solo[i] is process i's speculating run alone on the same substrate
	// configuration: the reference its group output must match and the base
	// of its slowdown. Built once, on first use, outside every timed region.
	var solo []*core.RunStats
	soloRuns := func() ([]*core.RunStats, error) {
		if solo != nil {
			return solo, nil
		}
		for i, app := range multiMixApps {
			c := cfg
			c.FirstProcIndex = i
			res, err := group(nil, c, core.ModeSpeculating, []apps.App{app})
			if err != nil {
				return nil, fmt.Errorf("solo p%d: %w", i, err)
			}
			cp := *res.Procs[0].Stats // see runOutcome
			solo = append(solo, &cp)
		}
		return solo, nil
	}

	p.verify = func(outs []*outcome) []error {
		errs := make([]error, len(outs))
		ref, err := soloRuns()
		for i, o := range outs {
			if o == nil {
				continue
			}
			if err != nil {
				errs[i] = err
				continue
			}
			if n := o.group.Cache.UnhintedCrossEvicts; n != 0 {
				errs[i] = fmt.Errorf("%d hinted blocks evicted by another owner's unhinted traffic", n)
				continue
			}
			for j, pr := range o.group.Procs {
				st := pr.Stats
				if st.ExitCode != ref[j].ExitCode || st.Output != ref[j].Output {
					errs[i] = fmt.Errorf("%s: exit %d, output %q; solo exit %d, output %q",
						pr.Name, st.ExitCode, st.Output, ref[j].ExitCode, ref[j].Output)
				} else if got := st.Buckets.Total(); got != int64(st.Elapsed) {
					errs[i] = fmt.Errorf("%s: stall buckets sum to %d, elapsed is %d", pr.Name, got, st.Elapsed)
				}
			}
		}
		return errs
	}
	p.ratios = func(outs []*outcome) []float64 {
		if outs[0] == nil || outs[1] == nil {
			return nil
		}
		return []float64{float64(outs[1].virt) / float64(outs[0].virt)}
	}
	p.layers = func(m metrics, tr *tracer, outs []*outcome) {
		m["par.cache_builds"] = float64(apps.ProgramCacheLen())
		ref, err := soloRuns()
		if err != nil || outs[0] == nil || outs[1] == nil {
			return
		}
		// A group can finish sooner while one member finishes later.
		for j, pr := range outs[1].group.Procs {
			r := float64(pr.Stats.Elapsed) / float64(outs[0].group.Procs[j].Stats.Elapsed)
			m["multi.worst_proc_ratio_x"] = math.Max(m["multi.worst_proc_ratio_x"], r)
		}
		var slow []float64
		for j, pr := range outs[1].group.Procs {
			s := float64(pr.Stats.Elapsed) / float64(ref[j].Elapsed)
			slow = append(slow, s)
			if s > m["multi.max_slowdown_x"] {
				m["multi.max_slowdown_x"] = s
			}
		}
		m["multi.jain"] = multi.JainIndex(slow)
	}
	return p
}

// ------------------------------------------------------- cluster_overload --

const clusterShards = 4

// clusterArms are the four cells. capacity and nohints differ only in hint
// disclosure, which isolates the hint-ingestion path; overload and failover
// arm the admission/retry/breaker layer at four times the arrival rate.
// The two overload arms run without hints: hinted overload panics in
// cache.Touch on about one seed in ten (README, "Known failures").
var clusterArms = []string{"capacity", "nohints", "overload", "failover"}

func clusterPopulation(seed int64, small bool, arrivalMean int64) clients.Config {
	c := clients.Config{
		N: 128, Sessions: 8,
		Files: 96, FileBlocks: 96, BlockSize: 8192,
		SessionBlocks: 48, ReadBlocks: 8,
		ArrivalMean: arrivalMean, ThinkMean: 20_000,
		ZipfS: 1.2, ZipfV: 1, Seed: 1777 + seed,
	}
	if small {
		c.N, c.Sessions = 32, 4
	}
	return c
}

// clusterPops is how many client populations a repetition runs, each through
// the four arms. What a population costs the host and how much hints help it
// move by a tenth with the seed that draws it — the counts of reads, hint
// messages and batches stay within 3% — so a run averages over three; their
// seeds are clusterPopStride apart.
const (
	clusterPops      = 3
	clusterPopStride = 1000
)

func clusterOverload(seed int64, small bool) *plan {
	p := &plan{reset: func() {}}
	for k := 0; k < clusterPops; k++ {
		popSeed := seed + int64(k)*clusterPopStride
		group := fmt.Sprintf("n128.%d", k)
		var overloadElapsed sim.Time // the failover arm kills a shard a third of the way in
		for _, arm := range clusterArms {
			arm := arm
			p.cells = append(p.cells, cell{id: group + "/" + arm, group: group, arm: arm,
				disks: clusterShards * cluster.DefaultConfig(clusterShards).Disk.NumDisks,
				run: func(tr *tracer) (*outcome, error) {
					cfg, arrival := cluster.DefaultConfig(clusterShards), int64(80_000_000)
					switch arm {
					case "nohints":
						cfg.Hints = false
					case "overload", "failover":
						cfg, arrival = cluster.OverloadConfig(clusterShards), 20_000_000
						cfg.Hints = false
					}
					if arm == "failover" {
						if overloadElapsed == 0 {
							return nil, fmt.Errorf("the overload cell did not finish, so there is no kill time")
						}
						plan := fault.NewPlan(1)
						plan.DieShard, plan.DieShardAt = 1, overloadElapsed/3
						cfg.Fault = plan
					}
					end := tr.begin("clients.generate")
					pop, err := clients.Generate(clusterPopulation(popSeed, small, arrival))
					if err != nil {
						return nil, err
					}
					end()
					end = tr.begin("cluster.new")
					cl, err := cluster.New(cfg, pop)
					if err != nil {
						return nil, err
					}
					end()
					end = tr.begin("cluster.run." + arm)
					res, err := cl.Run()
					if err != nil {
						return nil, err
					}
					end()
					if arm == "overload" {
						overloadElapsed = res.Elapsed
					}
					return &outcome{virt: int64(res.Elapsed), reads: res.Reads + res.FailedReads, cluster: res, pop: pop}, nil
				}})
		}
	}
	p.verify = func(outs []*outcome) []error {
		errs := make([]error, len(outs))
		for i, o := range outs {
			if o == nil {
				continue
			}
			arm := p.cells[i].arm
			if err := o.cluster.Check(); err != nil {
				errs[i] = err
			} else if o.reads != o.pop.TotalReads {
				errs[i] = fmt.Errorf("%d served + %d failed reads, population issued %d",
					o.cluster.Reads, o.cluster.FailedReads, o.pop.TotalReads)
			} else if (arm == "capacity" || arm == "nohints") && o.cluster.FailedReads != 0 {
				errs[i] = fmt.Errorf("%d reads failed with admission control off", o.cluster.FailedReads)
			}
		}
		return errs
	}
	// Mean served-read latency with hints over without, population by
	// population: the capacity and nohints arms lead each population's cells.
	p.ratios = func(outs []*outcome) []float64 {
		var rs []float64
		for i := 0; i+1 < len(outs); i += len(clusterArms) {
			if outs[i] == nil || outs[i+1] == nil {
				continue
			}
			hinted, unhinted := bench.Summarize(outs[i].cluster.Latencies), bench.Summarize(outs[i+1].cluster.Latencies)
			if unhinted.Mean > 0 {
				rs = append(rs, hinted.Mean/unhinted.Mean)
			}
		}
		return rs
	}
	p.layers = clusterLayers
	return p
}
