package bench

// The cluster experiment: throughput, tail latency and fairness of the
// sharded TIP service (internal/cluster) as the shard count grows under a
// fixed synthetic client population, at two offered loads. Every
// (shards, load) pair is one independent simulation cell — its own clock,
// ring, shards and freshly generated population — so the sweep fans out over
// the worker pool and stays byte-identical at any -parallel width.

import (
	"fmt"

	"spechint/internal/apps"
	"spechint/internal/clients"
	"spechint/internal/cluster"
	"spechint/internal/core"
	"spechint/internal/multi"
)

// clusterShards is the shard-count axis of the sweep.
var clusterShards = []int{1, 2, 4, 8, 16}

// clusterLoad is one offered-load column: a label and the per-client mean
// session inter-arrival time.
type clusterLoad struct {
	name        string
	arrivalMean int64
}

// clusterLoads are the two offered loads of the sweep: moderate keeps the
// single-shard cell comfortably under saturation; heavy pushes it past the
// knee so the shard axis has something to relieve.
var clusterLoads = []clusterLoad{
	{"moderate", 400_000_000}, // ~1.7 s mean between a client's sessions
	{"heavy", 80_000_000},     // ~0.34 s: 5x the session pressure
}

// clusterPopulation sizes the population to the benchmark scale.
func clusterPopulation(scale apps.Scale, arrivalMean int64) clients.Config {
	cfg := clients.Config{
		N: 48, Sessions: 4,
		Files: 96, FileBlocks: 96, BlockSize: 8192,
		SessionBlocks: 48, ReadBlocks: 8,
		ArrivalMean: arrivalMean, ThinkMean: 500_000,
		ZipfS: 1.2, ZipfV: 1, Seed: 42,
	}
	switch scale.Name {
	case "test":
		cfg.N, cfg.Sessions = 8, 2
		cfg.Files, cfg.FileBlocks = 24, 64
		cfg.SessionBlocks = 16
	case "sweep":
		cfg.N, cfg.Sessions = 24, 3
		cfg.Files = 64
		cfg.SessionBlocks = 32
	}
	return cfg
}

// ClusterShardDetail is one shard's accounting inside a point. The three
// stall buckets sum exactly to the point's elapsed_cycles: clusterCell fails
// the sweep otherwise (Result.Check).
type ClusterShardDetail struct {
	ID             int   `json:"id"`
	HintedCycles   int64 `json:"hinted_cycles"`
	UnhintedCycles int64 `json:"unhinted_cycles"`
	IdleCycles     int64 `json:"idle_cycles"`
	ReadParts      int64 `json:"read_parts"`
	HintedParts    int64 `json:"hinted_parts"`
	HintBatches    int64 `json:"hint_batches"`
	PeakSessions   int   `json:"peak_sessions"`
}

// ClusterPoint is one (shards, load) cell of the sweep.
type ClusterPoint struct {
	Shards        int     `json:"shards"`
	Load          string  `json:"load"`
	OfferedPerSec float64 `json:"offered_sessions_per_sec"` // whole population
	ElapsedCycles int64   `json:"elapsed_cycles"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	Reads         int64   `json:"reads"`
	Throughput    float64 `json:"throughput_reads_per_sec"`

	MeanLatMs float64 `json:"mean_latency_ms"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	P999Ms    float64 `json:"p999_ms"`

	// Jain is Jain's fairness index over per-client mean read latencies.
	Jain float64 `json:"jain_fairness"`

	HintedPartPct float64              `json:"hinted_part_pct"`
	ShardsDetail  []ClusterShardDetail `json:"shards_detail"`
}

// msPerCycle converts testbed cycles to milliseconds.
const msPerCycle = 1000 / core.CPUHz

// clusterCell runs one (shards, load) simulation.
func clusterCell(scale apps.Scale, shards int, load clusterLoad) (ClusterPoint, error) {
	ccfg := clusterPopulation(scale, load.arrivalMean)
	pop, err := clients.Generate(ccfg)
	if err != nil {
		return ClusterPoint{}, fmt.Errorf("bench: cluster population: %w", err)
	}
	cl, err := cluster.New(cluster.DefaultConfig(shards), pop)
	if err != nil {
		return ClusterPoint{}, fmt.Errorf("bench: cluster %d shards: %w", shards, err)
	}
	res, err := cl.Run()
	if err == nil {
		err = res.Check()
	}
	if err != nil {
		return ClusterPoint{}, fmt.Errorf("bench: cluster %d shards (%s): %w", shards, load.name, err)
	}

	lat := Summarize(res.Latencies)
	pt := ClusterPoint{
		Shards:        shards,
		Load:          load.name,
		OfferedPerSec: float64(ccfg.N) * core.CPUHz / float64(load.arrivalMean),
		ElapsedCycles: int64(res.Elapsed),
		ElapsedSec:    res.Seconds(),
		Reads:         res.Reads,
		Throughput:    res.Throughput(),
		MeanLatMs:     lat.Mean * msPerCycle,
		P50Ms:         float64(lat.P50) * msPerCycle,
		P99Ms:         float64(lat.P99) * msPerCycle,
		P999Ms:        float64(lat.P999) * msPerCycle,
	}
	var means []float64
	for _, c := range res.Clients {
		if c.Reads > 0 {
			means = append(means, c.MeanLat)
		}
	}
	pt.Jain = multi.JainIndex(means)
	var parts, hinted int64
	for _, s := range res.Shards {
		parts += s.Stats.ReadParts
		hinted += s.Stats.HintedParts
		pt.ShardsDetail = append(pt.ShardsDetail, ClusterShardDetail{
			ID:             s.ID,
			HintedCycles:   s.Buckets.HintedService,
			UnhintedCycles: s.Buckets.UnhintedService,
			IdleCycles:     s.Buckets.Idle,
			ReadParts:      s.Stats.ReadParts,
			HintedParts:    s.Stats.HintedParts,
			HintBatches:    s.Stats.Batches,
			PeakSessions:   s.Stats.PeakSessions,
		})
	}
	if parts > 0 {
		pt.HintedPartPct = 100 * float64(hinted) / float64(parts)
	}
	return pt, nil
}

// clusterSweep runs every (shards, load) cell as a flat fan-out, load-major
// so the table groups by load.
func clusterSweep(scale apps.Scale, shardCounts []int) ([]ClusterPoint, error) {
	n := len(clusterLoads) * len(shardCounts)
	return parMap(n, func(i int) (ClusterPoint, error) {
		load := clusterLoads[i/len(shardCounts)]
		return clusterCell(scale, shardCounts[i%len(shardCounts)], load)
	})
}

// ClusterReport is the cluster family's report.
type ClusterReport struct {
	Experiment string         `json:"experiment"`
	Shards     []int          `json:"shard_counts"`
	Points     []ClusterPoint `json:"points"`
}

// shardedService is the sharded-service experiment: the synthetic population
// against 1..16 shards at two offered loads, reporting throughput, latency
// tails and Jain fairness across clients.
func shardedService(scale apps.Scale) (Report, error) {
	return clusterReport(scale, clusterShards)
}

func clusterReport(scale apps.Scale, shardCounts []int) (*ClusterReport, error) {
	points, err := clusterSweep(scale, shardCounts)
	if err != nil {
		return nil, err
	}
	return &ClusterReport{"cluster", shardCounts, points}, nil
}

func (r *ClusterReport) Text() string {
	t := newTable("Sharded TIP service: synthetic population vs shard count (2 disks + 4 MB cache per shard)")
	t.row("load", "shards", "offered (sess/s)", "reads/s", "mean (ms)", "p50 (ms)", "p99 (ms)", "p999 (ms)", "hinted", "Jain")
	for _, pt := range r.Points {
		t.row(pt.Load, fmt.Sprintf("%d", pt.Shards),
			fmt.Sprintf("%.2f", pt.OfferedPerSec),
			fmt.Sprintf("%.1f", pt.Throughput),
			fmt.Sprintf("%.2f", pt.MeanLatMs),
			fmt.Sprintf("%.2f", pt.P50Ms),
			fmt.Sprintf("%.2f", pt.P99Ms),
			fmt.Sprintf("%.2f", pt.P999Ms),
			pct(pt.HintedPartPct),
			fmt.Sprintf("%.3f", pt.Jain))
	}
	return t.Text()
}
