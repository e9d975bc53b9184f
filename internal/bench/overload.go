package bench

// The overload experiment: the sharded TIP service driven past saturation,
// with and without admission control. The load axis scales the client
// population from half the saturating level to four times it; at each level
// one cell runs with the shed/retry/breaker stack armed and one with the
// original unbounded queueing. The figure the sweep exists to draw: with
// shedding on, goodput plateaus at capacity and the latency of the requests
// actually served stays bounded, while with shedding off the same offered
// load drives served latency off the cliff. A final failover cell kills one
// shard a third of the way through the run and checks that every surviving
// session still completes via the ring's re-route.
//
// Every cell is one independent simulation — its own clock, ring, shards and
// freshly generated population — so the sweep fans out over the worker pool
// and stays byte-identical at any -parallel width. Each cell also re-checks
// the cluster's conservation invariants (Result.Check): CI runs this sweep
// and jq-asserts admitted + shed + failed == offered from the JSON.

import (
	"fmt"

	"spechint/internal/apps"
	"spechint/internal/clients"
	"spechint/internal/cluster"
	"spechint/internal/fault"
	"spechint/internal/sim"
)

// OverloadMults is the offered-load axis, in multiples of the roughly
// saturating population (1.0 keeps the shards busy without queueing
// collapse; 4.0 is deep overload).
var OverloadMults = []float64{0.5, 1, 2, 4}

// OverloadShards is the cluster size every overload cell runs against. Two
// shards keep the cells cheap while still exercising cross-shard routing and
// leaving a survivor for the failover cell.
const OverloadShards = 2

// overloadKillShard is the shard the failover cell kills.
const overloadKillShard = 1

// overloadPopulation sizes the population at `mult` times the roughly
// saturating level for OverloadShards testbed shards. The multiplier scales
// the client count — more independent request streams, the way real offered
// load grows — rather than per-client rates, so think times and session
// shapes stay fixed across the axis.
func overloadPopulation(scale apps.Scale, mult float64) clients.Config {
	// A flatter file popularity (ZipfS just above 1) spreads load across the
	// ring: with a steep Zipf the few hot files' placement groups can land
	// mostly on one shard, and the experiment would measure that placement
	// skew instead of admission control.
	cfg := clients.Config{
		N: 24, Sessions: 3,
		Files: 64, FileBlocks: 64, BlockSize: 8192,
		SessionBlocks: 32, ReadBlocks: 4,
		ArrivalMean: 1_000_000, ThinkMean: 20_000,
		ZipfS: 1.01, ZipfV: 1, Seed: 1777,
	}
	if scale.Name == "test" { // smaller base, same shape
		cfg.N, cfg.Sessions = 16, 2
		cfg.SessionBlocks = 16
	}
	n := int(float64(cfg.N)*mult + 0.5)
	if n < 1 {
		n = 1
	}
	cfg.N = n
	return cfg
}

// overloadConfig arms (or disarms) the overload-survival stack on the
// standard testbed cluster.
func overloadConfig(shed bool) cluster.Config {
	var cfg cluster.Config
	if shed {
		cfg = cluster.OverloadConfig(OverloadShards)
	} else {
		cfg = cluster.DefaultConfig(OverloadShards)
		// Shedding off still bounds service width so the two columns queue
		// at the same place; only the admission ruling differs.
		cfg.MaxInflight = cluster.OverloadConfig(OverloadShards).MaxInflight
	}
	// Fine-grained placement for this experiment only: small groups
	// interleave every file across the ring, so both shards carry the hot
	// files and the sweep saturates the cluster rather than whichever shard
	// the popular placement groups happened to land on.
	cfg.GroupBlocks = 2
	return cfg
}

// OverloadShardDetail is one shard's admission accounting inside a point.
// CI asserts offered == admitted + shed + failed per shard, and that the
// three stall buckets sum to the point's elapsed_cycles.
type OverloadShardDetail struct {
	ID             int   `json:"id"`
	Offered        int64 `json:"offered"`
	Admitted       int64 `json:"admitted"`
	Shed           int64 `json:"shed"`
	Failed         int64 `json:"failed"`
	Retried        int64 `json:"retried"`
	PeakQueue      int   `json:"peak_queue"`
	HintedCycles   int64 `json:"hinted_cycles"`
	UnhintedCycles int64 `json:"unhinted_cycles"`
	IdleCycles     int64 `json:"idle_cycles"`
}

// OverloadPoint is one cell of the sweep.
type OverloadPoint struct {
	Mult     float64 `json:"load_mult"`
	Shed     bool    `json:"shed"`
	Failover bool    `json:"failover"`
	Clients  int     `json:"clients"`

	ElapsedCycles int64   `json:"elapsed_cycles"`
	ElapsedSec    float64 `json:"elapsed_sec"`

	// Cluster-wide admission accounting (sums over shards).
	Offered     int64 `json:"offered"`
	Admitted    int64 `json:"admitted"`
	ShedParts   int64 `json:"shed_parts"`
	FailedParts int64 `json:"failed_parts"`

	// Client-side outcome.
	Reads        int64   `json:"reads"` // ops fully served
	FailedReads  int64   `json:"failed_reads"`
	Retries      int64   `json:"retries"`
	BreakerTrips int64   `json:"breaker_trips"`
	DeadSeen     int64   `json:"dead_seen"`
	Goodput      float64 `json:"goodput_reads_per_sec"`
	ShedRatePct  float64 `json:"shed_rate_pct"`

	// Latency of the reads that were served (failed ops contribute nothing).
	ServedP50Ms float64 `json:"served_p50_ms"`
	ServedP99Ms float64 `json:"served_p99_ms"`
	ServedMaxMs float64 `json:"served_max_ms"`

	ShardsDetail []OverloadShardDetail `json:"shards_detail"`
}

// overloadCell runs one (mult, shed) cell, optionally with a mid-run shard
// death, and distills the run into a point. Every cell re-checks the
// conservation invariants and that no session was lost: served + failed
// reads must equal the population's total.
func overloadCell(scale apps.Scale, mult float64, shed bool, plan *fault.Plan) (OverloadPoint, error) {
	ccfg := overloadPopulation(scale, mult)
	pop, err := clients.Generate(ccfg)
	if err != nil {
		return OverloadPoint{}, fmt.Errorf("bench: overload population: %w", err)
	}
	cfg := overloadConfig(shed)
	cfg.Fault = plan
	cl, err := cluster.New(cfg, pop)
	if err != nil {
		return OverloadPoint{}, fmt.Errorf("bench: overload cluster: %w", err)
	}
	res, err := cl.Run()
	if err != nil {
		return OverloadPoint{}, fmt.Errorf("bench: overload %gx shed=%v: %w", mult, shed, err)
	}
	if err := res.Check(); err != nil {
		return OverloadPoint{}, fmt.Errorf("bench: overload %gx shed=%v: %w", mult, shed, err)
	}
	if got := res.Reads + res.FailedReads; got != pop.TotalReads {
		return OverloadPoint{}, fmt.Errorf("bench: overload %gx shed=%v: %d served + %d failed != %d offered ops",
			mult, shed, res.Reads, res.FailedReads, pop.TotalReads)
	}

	lat := Summarize(res.Latencies)
	pt := OverloadPoint{
		Mult:          mult,
		Shed:          shed,
		Failover:      plan != nil,
		Clients:       ccfg.N,
		ElapsedCycles: int64(res.Elapsed),
		ElapsedSec:    res.Seconds(),
		Reads:         res.Reads,
		FailedReads:   res.FailedReads,
		Retries:       res.Retries,
		BreakerTrips:  res.BreakerTrips,
		DeadSeen:      res.DeadSeen,
		Goodput:       res.Throughput(),
		ServedP50Ms:   float64(lat.P50) * msPerCycle,
		ServedP99Ms:   float64(lat.P99) * msPerCycle,
		ServedMaxMs:   float64(lat.Max) * msPerCycle,
	}
	for _, s := range res.Shards {
		st := s.Stats
		pt.Offered += st.Offered
		pt.Admitted += st.Admitted
		pt.ShedParts += st.Shed
		pt.FailedParts += st.Failed
		pt.ShardsDetail = append(pt.ShardsDetail, OverloadShardDetail{
			ID:             s.ID,
			Offered:        st.Offered,
			Admitted:       st.Admitted,
			Shed:           st.Shed,
			Failed:         st.Failed,
			Retried:        st.Retried,
			PeakQueue:      st.PeakQueue,
			HintedCycles:   s.Buckets.HintedService,
			UnhintedCycles: s.Buckets.UnhintedService,
			IdleCycles:     s.Buckets.Idle,
		})
	}
	if pt.Offered > 0 {
		pt.ShedRatePct = 100 * float64(pt.ShedParts) / float64(pt.Offered)
	}
	return pt, nil
}

// failoverCell is the shard-death cell: it first runs the same load without
// a fault plan to learn the healthy run length, then kills overloadKillShard
// a third of the way through a fresh run. Deterministic by construction —
// the probe run is itself deterministic, so the death time is too.
func failoverCell(scale apps.Scale, mult float64) (OverloadPoint, error) {
	probe, err := overloadCell(scale, mult, true, nil)
	if err != nil {
		return OverloadPoint{}, err
	}
	plan := fault.NewPlan(1)
	plan.DieShard = overloadKillShard
	plan.DieShardAt = sim.Time(probe.ElapsedCycles / 3)
	return overloadCell(scale, mult, true, plan)
}

// overloadSweep runs the (mult, shed) grid plus the failover cell as a flat
// fan-out: shed-off cells first, then shed-on, then failover — the order the
// table reads in.
func overloadSweep(scale apps.Scale) ([]OverloadPoint, error) {
	grid := 2 * len(OverloadMults)
	return parMap(grid+1, func(i int) (OverloadPoint, error) {
		if i == grid {
			return failoverCell(scale, 2)
		}
		return overloadCell(scale, OverloadMults[i%len(OverloadMults)], i >= len(OverloadMults), nil)
	})
}

// OverloadReport is the overload family's report; the smoke job jq-validates
// the conservation invariant from its JSON.
type OverloadReport struct {
	Experiment string          `json:"experiment"`
	Mults      []float64       `json:"load_mults"`
	Points     []OverloadPoint `json:"points"`
}

// overload is the overload-survival experiment: offered load swept past
// saturation with shedding off vs on, plus a mid-run shard kill.
func overload(scale apps.Scale) (Report, error) {
	points, err := overloadSweep(scale)
	if err != nil {
		return nil, err
	}
	return &OverloadReport{"overload", OverloadMults, points}, nil
}

func (r *OverloadReport) Text() string {
	t := newTable("Overload-safe cluster: admission control and failover (2 shards, 2 disks + 4 MB cache each)")
	t.row("cell", "load", "clients", "offered", "admitted", "shed", "failed", "retries", "goodput (r/s)", "p50 (ms)", "p99 (ms)", "lost ops")
	for _, pt := range r.Points {
		name := "shed-off"
		if pt.Shed {
			name = "shed-on"
		}
		if pt.Failover {
			name = "failover"
		}
		t.row(name, fmt.Sprintf("%.1fx", pt.Mult),
			fmt.Sprintf("%d", pt.Clients),
			fmt.Sprintf("%d", pt.Offered),
			fmt.Sprintf("%d", pt.Admitted),
			fmt.Sprintf("%d", pt.ShedParts),
			fmt.Sprintf("%d", pt.FailedParts),
			fmt.Sprintf("%d", pt.Retries),
			fmt.Sprintf("%.1f", pt.Goodput),
			fmt.Sprintf("%.2f", pt.ServedP50Ms),
			fmt.Sprintf("%.2f", pt.ServedP99Ms),
			fmt.Sprintf("%d", pt.FailedReads))
	}
	return t.Text()
}
