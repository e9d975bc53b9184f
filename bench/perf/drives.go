package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"spechint/internal/apps"
	"spechint/internal/bench"
	"spechint/internal/cache"
	"spechint/internal/core"
	"spechint/internal/disk"
	"spechint/internal/fsim"
	"spechint/internal/obs"
	"spechint/internal/par"
	"spechint/internal/sim"
	"spechint/internal/trace"
)

// The drives below time one layer at a time from outside, through its public
// API only. They run in the traced run, never inside a timed repetition, and
// do not depend on the workload: they are the fixed yardsticks a per-layer
// optimisation should move before any end-to-end metric does.

// microDrives fills the sim, vm, cache, disk and obs micro metrics. small
// cuts every drive's operation count for the tests' fast pass.
func microDrives(m metrics, small bool) error {
	ops, obsScale := 2_000_000, apps.SweepScale()
	if small {
		ops, obsScale = 50_000, apps.TestScale()
	}
	// Event loop and interpreter: the repo's own speed cells, at test scale
	// so the end-to-end arm they carry along stays negligible.
	rep, err := bench.SpeedJSON(apps.TestScale(), "test")
	if err != nil {
		return fmt.Errorf("speed cells: %w", err)
	}
	for _, c := range rep.EventLoop {
		m["sim."+c.Name+"_ns_per_event"] = c.NsPerOp
		m["sim.allocs_per_event"] = math.Max(m["sim.allocs_per_event"], c.AllocsPerOp)
	}
	for _, c := range rep.VM {
		if c.Name == "vmstep" {
			m["vm.step_ns"] = c.NsPerOp
		}
	}

	m["cache.churn_ns_per_op"] = cacheChurn(ops)
	ns, err := diskSubmit(ops / 4)
	if err != nil {
		return err
	}
	m["disk.submit_ns_per_req"] = ns
	return obsOverhead(m, obsScale)
}

// cacheChurn cycles demand fetches over twice the testbed cache's capacity,
// so every access misses, evicts the LRU block, completes and is touched:
// the cache's whole steady-state path with no disk or clock behind it.
func cacheChurn(ops int) float64 {
	const capacity = 1536
	c := cache.New(capacity)
	start := time.Now()
	for i := 0; i < ops; i++ {
		lb := int64(i % (2 * capacity))
		if c.Get(lb) == nil {
			c.NoteMiss()
			c.Acquire(lb, cache.OriginDemand, cache.NoHint)
			c.Complete(lb)
		}
		c.Touch(lb)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// diskSubmit pushes demand requests through the four-disk testbed array in
// bursts of one stripe row and drains the clock after each: host cost per
// request of Submit, service scheduling and completion.
func diskSubmit(reqs int) (float64, error) {
	const burst = 32
	bursts := reqs / burst
	clk := sim.NewQueue()
	arr, err := disk.New(clk, core.TestbedDisk(4))
	if err != nil {
		return 0, fmt.Errorf("disk drive: %w", err)
	}
	done := 0
	onDone := func(error) { done++ }
	start := time.Now()
	for b := 0; b < bursts; b++ {
		// A stride of 97 blocks defeats the track buffer, so every request
		// takes the positioning path.
		for j := 0; j < burst; j++ {
			d, phys := arr.Map(int64((b*burst + j) * 97))
			arr.Submit(&disk.Request{Disk: d, PhysBlock: phys, Pri: disk.Demand, Done: onDone})
		}
		clk.Drain()
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(bursts*burst)
	if done != bursts*burst {
		return 0, fmt.Errorf("disk drive: %d of %d requests completed", done, bursts*burst)
	}
	return ns, nil
}

// obsOverhead runs Gnuld speculating — the app with the densest event
// stream — with and without the cross-layer trace, alternating, and compares
// the fastest of five each; then times the two exporters on the recorded trace.
func obsOverhead(m metrics, scale apps.Scale) error {
	var off, on time.Duration
	var tr *obs.Trace
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, _, err := bench.Run(apps.Gnuld, core.ModeSpeculating, scale, nil); err != nil {
			return fmt.Errorf("obs drive: %w", err)
		}
		if d := time.Since(start); off == 0 || d < off {
			off = d
		}
		start = time.Now()
		t, _, err := bench.TraceRun(apps.Gnuld, core.ModeSpeculating, scale)
		if err != nil {
			return fmt.Errorf("obs drive: %w", err)
		}
		if d := time.Since(start); on == 0 || d < on {
			on = d
		}
		tr = t
	}
	m["obs.enabled_overhead_pct"] = 100 * (on.Seconds() - off.Seconds()) / off.Seconds()
	m["obs.events"] = float64(len(tr.Events()))
	start := time.Now()
	if _, err := tr.ChromeTraceJSON(); err != nil {
		return fmt.Errorf("obs drive: %w", err)
	}
	if _, err := tr.MetricsJSON(); err != nil {
		return fmt.Errorf("obs drive: %w", err)
	}
	m["obs.export_s"] = time.Since(start).Seconds()
	return nil
}

// parSpeedup runs the plan's cells once across every CPU through the repo's
// fan-out engine and compares with the serial repetition's wall time. On a
// shared two-core box this is too noisy for an end-to-end metric.
func parSpeedup(m metrics, p *plan, serialWall float64) error {
	p.reset()
	start := time.Now()
	_, errs := par.Map(runtime.NumCPU(), len(p.cells), func(i int) (*outcome, error) {
		return p.cells[i].run(nil)
	})
	wall := time.Since(start).Seconds()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("parallel pass: %s: %w", p.cells[i].id, err)
		}
	}
	m["par.speedup_2w_x"] = serialWall / wall
	return nil
}

// tipstackReplay measures the I/O substrate without the VM: it captures each
// app's original-mode read stream, then replays it against a fresh TIP
// manager, disk array and event queue — Advance for the think time, Read,
// RunTick until the read completes. tipstack.share_pct is the replay's wall as
// a share of the same runs' core.Run wall; the rest is the VM's. The replay
// must issue exactly the demand requests the real run did.
func tipstackReplay(m metrics, list []apps.App, scale apps.Scale) error {
	var replays, runs time.Duration
	var reads int
	for _, app := range list {
		cfg := core.DefaultConfig(core.ModeNoHint)
		capture := &trace.Capture{}
		cfg.Capture = capture
		b, err := apps.Build(app, scale)
		if err != nil {
			return fmt.Errorf("tipstack %v: %w", app, err)
		}
		sys, err := core.New(cfg, b.Original, b.FS)
		if err != nil {
			return fmt.Errorf("tipstack %v: %w", app, err)
		}
		start := time.Now()
		st, err := sys.Run()
		if err != nil {
			return fmt.Errorf("tipstack capture %v: %w", app, err)
		}
		runs += time.Since(start)

		if b, err = apps.Build(app, scale); err != nil { // fresh, identical file system
			return fmt.Errorf("tipstack %v: %w", app, err)
		}
		sub, err := core.NewSubstrate(cfg.Disk, cfg.TIP, b.FS)
		if err != nil {
			return fmt.Errorf("tipstack %v: %w", app, err)
		}
		start = time.Now()
		n, err := replayReads(sub, capture.Trace().Recs)
		if err != nil {
			return fmt.Errorf("tipstack %v: %w", app, err)
		}
		replays += time.Since(start)
		reads += n
		if got := sub.Arr.Stats().DemandReqs; got != st.Disk.DemandReqs {
			return fmt.Errorf("tipstack %v: replay issued %d demand requests, the run issued %d", app, got, st.Disk.DemandReqs)
		}
	}
	m["tipstack.share_pct"] = pct(replays.Seconds(), runs.Seconds())
	m["tipstack.us_per_read"] = ratio(replays.Seconds()*1e6, float64(reads))
	return nil
}

// replayReads drives a captured read stream into the substrate and returns
// the number of reads it issued.
func replayReads(sub *core.Substrate, recs []trace.Rec) (reads int, err error) {
	var f *fsim.File
	for _, r := range recs {
		switch r.Kind {
		case trace.KindOpen:
			var ok bool
			if f, ok = sub.FS.Lookup(r.Path); !ok {
				return reads, fmt.Errorf("captured path %q not in the workload", r.Path)
			}
		case trace.KindThink:
			sub.Clk.Advance(sim.Time(r.Cycles))
		case trace.KindRead:
			reads++
			done := false
			if sub.TIP.Read(f, r.Off, r.Len, false, func(error) { done = true }) {
				continue
			}
			for !done {
				if !sub.Clk.RunTick() {
					return reads, fmt.Errorf("event queue drained with a read pending")
				}
			}
		}
	}
	return reads, nil
}
