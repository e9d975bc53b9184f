package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"spechint/internal/bench"
	"spechint/internal/cache"
	"spechint/internal/core"
	"spechint/internal/disk"
	"spechint/internal/tip"
)

// metrics maps a metric name to its value. BENCHMARK.json is the registry of
// names, units, directions and bounds; the tests hold the two in step.
type metrics map[string]float64

const (
	msPerCycle = 1e3 / core.CPUHz
	mb         = 1 << 20
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// virtMetrics fills the virtual-time end-to-end metrics from one
// repetition's outcomes. Every value is a pure function of the seed.
func virtMetrics(m metrics, p *plan, outs []*outcome) {
	// The level of simulated time: the geometric mean over cells of elapsed
	// per application read, so every cell counts once. A plain Σ elapsed ÷
	// Σ reads is XDataSlice's number — it simulates ten times the seconds of
	// the other apps — and moves 11% over seeds with the slices a seed draws.
	// A group counts process by process, each with its own turnaround, for
	// the same reason: its makespan is XDataSlice's.
	var logSum float64
	var n int
	add := func(cycles, reads int64) {
		if cycles > 0 && reads > 0 {
			logSum += math.Log(float64(cycles) * msPerCycle / float64(reads))
			n++
		}
	}
	for _, o := range outs {
		switch {
		case o == nil:
		case o.group != nil:
			for _, pr := range o.group.Procs {
				add(int64(pr.Stats.Elapsed), pr.Stats.ReadCalls)
			}
		default:
			add(o.virt, o.reads)
		}
	}
	if n > 0 {
		m["virt_ms_per_read"] = math.Exp(logSum / float64(n))
	}
	if mean, worst, ok := ratioStats(p.ratios(outs)); ok {
		m["virt_hinted_ratio"] = mean
		m["virt_worst_ratio"] = worst
	}
}

// ratioStats returns the mean and the maximum of rs.
func ratioStats(rs []float64) (mean, worst float64, ok bool) {
	if len(rs) == 0 {
		return 0, 0, false
	}
	for _, r := range rs {
		mean += r
		worst = math.Max(worst, r)
	}
	return mean / float64(len(rs)), worst, true
}

// layerCounts fills every per-layer metric that is a count or a share taken
// from the simulator's own statistics — exact, and the same on the composed
// and the decomposed path.
func layerCounts(m metrics, p *plan, outs []*outcome) {
	var (
		cycles          int64
		ts              tip.Stats
		cs              cache.Stats
		ds              disk.Stats
		diskCycles      int64 // Σ disks × elapsed, the denominator of utilisation
		b               core.StallBuckets
		instrsO, instrs int64
	)
	addLayers := func(t tip.Stats, c cache.Stats, d disk.Stats) {
		ts.HintCalls += t.HintCalls
		ts.MatchedCalls += t.MatchedCalls
		ts.HintPrefetches += t.HintPrefetches
		ts.RAPrefetches += t.RAPrefetches
		ts.BypassedSegs += t.BypassedSegs
		cs.Hits += c.Hits
		cs.Misses += c.Misses
		cs.PartialWaits += c.PartialWaits
		cs.UnusedHint += c.UnusedHint
		cs.UnusedRA += c.UnusedRA
		cs.CrossHintEvicts += c.CrossHintEvicts
		ds.DemandReqs += d.DemandReqs
		ds.PrefetchReqs += d.PrefetchReqs
		ds.TrackBufHits += d.TrackBufHits
		ds.BusyCycles += d.BusyCycles
		ds.DemandWait += d.DemandWait
	}
	addRun := func(st *core.RunStats) {
		instrsO += st.OrigInstrs
		instrs += st.SpecInstrs
		m["core.restarts"] += float64(st.Restarts)
		m["core.spec_signals"] += float64(st.SpecSignals)
		b.Compute += st.Buckets.Compute
		b.SpecOverhead += st.Buckets.SpecOverhead
		b.HintedStall += st.Buckets.HintedStall
		b.UnhintedStall += st.Buckets.UnhintedStall
		b.FaultStall += st.Buckets.FaultStall
		b.SchedWait += st.Buckets.SchedWait
	}
	for i, o := range outs {
		if o == nil {
			continue
		}
		cycles += o.virt
		diskCycles += int64(p.cells[i].disks) * o.virt
		switch {
		case o.run != nil:
			addRun(o.run)
			addLayers(o.run.Tip, o.run.Cache, o.run.Disk)
		case o.group != nil:
			for _, pr := range o.group.Procs {
				addRun(pr.Stats)
			}
			addLayers(o.group.Tip, o.group.Cache, o.group.Disk)
		case o.cluster != nil:
			for _, s := range o.cluster.Shards {
				addLayers(s.Tip, s.Cache, s.Disk)
			}
		}
		m["fsim.blocks_created"] += float64(o.fsBlocks)
		m["asm.src_kb"] += float64(o.srcBytes) / 1024
	}

	m["virt.total_s"] = float64(cycles) / core.CPUHz
	if mean, worst, ok := ratioStats(p.ratios(outs)); ok {
		m["virt.gain_pct"] = 100 * (1 - mean)
		m["virt.worst_gain_pct"] = 100 * (1 - worst)
	}

	m["vm.instrs_orig"] = float64(instrsO)
	m["vm.instrs_spec"] = float64(instrs)

	m["tip.hint_calls"] = float64(ts.HintCalls)
	m["tip.matched_calls"] = float64(ts.MatchedCalls)
	m["tip.hint_accuracy_pct"] = pct(float64(ts.MatchedCalls), float64(ts.HintCalls))
	m["tip.hint_prefetches"] = float64(ts.HintPrefetches)
	m["tip.ra_prefetches"] = float64(ts.RAPrefetches)
	m["tip.bypassed_segs"] = float64(ts.BypassedSegs)

	m["cache.hits"] = float64(cs.Hits)
	m["cache.misses"] = float64(cs.Misses)
	m["cache.partial_waits"] = float64(cs.PartialWaits)
	m["cache.unused_hint"] = float64(cs.UnusedHint)
	m["cache.unused_ra"] = float64(cs.UnusedRA)
	if pf := float64(ts.PrefetchedBlocks()); pf > 0 {
		m["cache.prefetch_useful_pct"] = 100 * (1 - float64(cs.UnusedHint+cs.UnusedRA)/pf)
	}
	m["cache.cross_hint_evicts"] = float64(cs.CrossHintEvicts)

	m["disk.demand_reqs"] = float64(ds.DemandReqs)
	m["disk.prefetch_reqs"] = float64(ds.PrefetchReqs)
	m["disk.trackbuf_hits"] = float64(ds.TrackBufHits)
	m["disk.util_pct"] = pct(float64(ds.BusyCycles), float64(diskCycles))
	m["disk.demand_wait_ms"] = ratio(float64(ds.DemandWait)*msPerCycle, float64(ds.DemandReqs))

	if total := float64(b.Total()); total > 0 {
		m["core.bucket.compute_pct"] = 100 * float64(b.Compute) / total
		m["core.bucket.spec_overhead_pct"] = 100 * float64(b.SpecOverhead) / total
		m["core.bucket.hinted_stall_pct"] = 100 * float64(b.HintedStall) / total
		m["core.bucket.unhinted_stall_pct"] = 100 * float64(b.UnhintedStall) / total
		m["core.bucket.fault_stall_pct"] = 100 * float64(b.FaultStall) / total
		m["core.bucket.sched_wait_pct"] = 100 * float64(b.SchedWait) / total
	}
}

// shareSpans are the leaf spans of a traced repetition: each is one call
// into a layer's public API. Their shares of the traced wall, plus
// harness.other_share_pct for the harness's own loop, sum to 100.
var shareSpans = []string{
	"workload.build", "apps.source", "trace.source", "asm.assemble", "spechint.transform", "analysis.synth",
	"core.new", "core.run.original", "core.run.speculating", "core.run.manual", "core.run.static",
	"multi.new", "multi.run.original", "multi.run.speculating",
	"clients.generate", "cluster.new", "cluster.run.capacity", "cluster.run.nohints", "cluster.run.overload", "cluster.run.failover",
}

// shareName turns a span name into its metric: "core.run.original" →
// "core.run_share_pct.original", "asm.assemble" → "asm.assemble_share_pct".
func shareName(span string) string {
	parts := strings.SplitN(span, ".", 3)
	name := parts[0] + "." + parts[1] + "_share_pct"
	if len(parts) == 3 {
		name += "." + parts[2]
	}
	return name
}

// layerTimes fills the host-time per-layer metrics from a traced
// repetition's spans: where the wall went, as shares of it, and the
// interpreter's cost per simulated instruction.
func layerTimes(m metrics, p *plan, tr *tracer, outs []*outcome, tracedWall float64) {
	other := 100.0
	for _, span := range shareSpans {
		share := pct(tr.seconds(span), tracedWall)
		m[shareName(span)] = share
		other -= share
	}
	m["harness.other_share_pct"] = other
	m["harness.traced_wall_s"] = tracedWall

	// Instructions per arm, to turn each arm's run seconds into ns/instr. The
	// group's run includes the scheduler's 100k-cycle slicing, which the solo
	// workloads do not pay.
	instrs := map[string]int64{}
	var all int64
	for i, o := range outs {
		if o != nil {
			instrs[p.cells[i].arm] += o.instrs
			all += o.instrs
		}
	}
	for _, arm := range []string{"original", "speculating"} {
		s := tr.seconds("core.run."+arm) + tr.seconds("multi.run."+arm)
		m["vm.ns_per_instr."+arm] = ratio(s*1e9, float64(instrs[arm]))
	}
	m["vm.spec_slowdown_x"] = ratio(m["vm.ns_per_instr.speculating"], m["vm.ns_per_instr.original"])
	m["vm.minstr_per_s"] = ratio(float64(all)/1e6, tracedWall)
}

// clusterLayers is cluster_overload's own per-layer set.
func clusterLayers(m metrics, tr *tracer, outs []*outcome) {
	var reads, offered, served int64
	var wall float64
	var overloadLat []int64 // served reads of every population's overload arm
	runS := map[string]float64{}
	armReads := map[string]int64{}
	for _, arm := range clusterArms {
		runS[arm] = tr.seconds("cluster.run." + arm)
		wall += runS[arm]
	}
	for i, o := range outs {
		if o == nil {
			continue
		}
		arm, res := clusterArms[i%len(clusterArms)], o.cluster
		reads += o.reads
		armReads[arm] += o.reads
		switch arm {
		case "overload":
			overloadLat = append(overloadLat, res.Latencies...)
			fallthrough
		case "failover":
			offered += o.pop.TotalReads
			served += res.Reads
		}
		m["cluster.retries"] += float64(res.Retries)
		m["cluster.breaker_trips"] += float64(res.BreakerTrips)
		for _, s := range res.Shards {
			m["cluster.read_parts"] += float64(s.Stats.ReadParts)
			m["cluster.hint_msgs"] += float64(s.Stats.HintMsgs)
			m["cluster.hint_batches"] += float64(s.Stats.Batches)
			m["cluster.applied_segs"] += float64(s.Stats.AppliedSegs)
			m["cluster.shed"] += float64(s.Stats.Shed)
			m["cluster.peak_queue"] = math.Max(m["cluster.peak_queue"], float64(s.Stats.PeakQueue))
		}
	}
	for _, arm := range []string{"capacity", "nohints"} {
		m["cluster.us_per_read."+arm] = ratio(runS[arm]*1e6, float64(armReads[arm]))
	}
	lat := bench.Summarize(overloadLat)
	m["cluster.virt_p50_ms"] = float64(lat.P50) * msPerCycle
	m["cluster.virt_p99_ms"] = float64(lat.P99) * msPerCycle
	m["cluster.virt_p999_ms"] = float64(lat.P999) * msPerCycle
	m["cluster.hint_wall_ratio_x"] = ratio(runS["capacity"], runS["nohints"])
	m["cluster.virt_goodput_pct"] = pct(float64(served), float64(offered))
	m["cluster.kreads_per_s"] = ratio(float64(reads)/1e3, wall)
}

// checkBuckets reports whether the stall-bucket shares sum to 100, the
// exact-sum discipline core keeps per run carried to the aggregate.
func checkBuckets(m metrics) error {
	sum := 0.0
	n := 0
	for _, k := range []string{"compute", "spec_overhead", "hinted_stall", "unhinted_stall", "fault_stall", "sched_wait"} {
		v := m["core.bucket."+k+"_pct"]
		sum += v
		if v != 0 {
			n++
		}
	}
	if n > 0 && math.Abs(sum-100) > 1e-6 {
		return fmt.Errorf("stall-bucket shares sum to %.9f, want 100", sum)
	}
	return nil
}
