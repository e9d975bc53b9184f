package bench

import (
	"fmt"

	"spechint/internal/apps"
	"spechint/internal/core"
	"spechint/internal/fault"
	"spechint/internal/sim"
)

// FaultRates is the transient-error-rate sweep used by the faults experiment
// (rate 0 is the fault-free baseline).
var FaultRates = []float64{0, 0.01, 0.02, 0.05, 0.1}

// faultSeed keeps the injection schedule fixed across runs so degradation
// curves are reproducible point for point.
const faultSeed = 99

// FaultPoint is one (app, mode, rate) cell of the degradation sweep.
type FaultPoint struct {
	App          string  `json:"app"`
	Mode         string  `json:"mode"`
	Rate         float64 `json:"rate"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	StallSec     float64 `json:"stall_sec"`
	FaultedReqs  int64   `json:"faulted_reqs"`
	SpikedReqs   int64   `json:"spiked_reqs"`
	FetchRetries int64   `json:"fetch_retries"`
	Demoted      int64   `json:"demoted_blocks"`
	SlowdownPct  float64 `json:"slowdown_pct"` // vs the same mode fault-free

	// elapsed carries the raw cycle count from the cell to the slowdown
	// pass; it stays out of the JSON (ElapsedSec reports the time).
	elapsed sim.Time
}

// faultPlan builds the plan for one run of a faulted cell: transient errors at the given
// rate with small bursts, plus a fixed low spike rate so the latency path is
// exercised too. No disk death — the sweep measures graceful degradation, so
// every run must still produce the fault-free output.
func faultPlan(rate float64) *fault.Plan {
	p := fault.NewPlan(faultSeed)
	p.Rate = rate
	p.Burst = 2
	p.SpikeRate = rate / 2
	p.SpikeFactor = 4
	return p
}

// faultsSweep runs the full (app, mode, rate) grid as one flat fan-out of
// cells. Each run gets its own seeded fault plan (Cell.apply: plans are
// stateful, so one is never shared), and the rate-0 cells are the default
// configuration's. Slowdowns are computed after the grid is assembled.
func faultsSweep(scale apps.Scale) ([]FaultPoint, error) {
	nr := len(FaultRates)
	var cs []Cell
	for _, app := range Apps {
		for _, mode := range tripleModes {
			for _, rate := range FaultRates {
				cs = append(cs, Cell{App: app, Mode: mode, Scale: scale, FaultRate: rate})
			}
		}
	}
	points, err := parMap(len(cs), func(i int) (FaultPoint, error) {
		c := cs[i]
		st, err := c.Run()
		if err == nil && st.ReadErrors != 0 {
			err = fmt.Errorf("%d demand reads surfaced EIO without disk death", st.ReadErrors)
		}
		if err != nil {
			return FaultPoint{}, fmt.Errorf("bench: faults %v %v rate %g: %w", c.App, c.Mode, c.FaultRate, err)
		}
		return FaultPoint{
			App:          c.App.String(),
			Mode:         c.Mode.String(),
			Rate:         c.FaultRate,
			ElapsedSec:   st.Seconds(),
			StallSec:     float64(st.StallCycles()) / core.CPUHz,
			FaultedReqs:  st.Disk.FaultedReqs,
			SpikedReqs:   st.Disk.SpikedReqs,
			FetchRetries: st.TipFaults.FetchRetries,
			Demoted:      st.TipFaults.DemotedBlocks,
			elapsed:      st.Elapsed,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// FaultRates[0] is the fault-free baseline of each (app, mode) group.
	for g := 0; g < len(points); g += nr {
		base := points[g].elapsed
		if base <= 0 {
			continue
		}
		for i := g; i < g+nr; i++ {
			points[i].SlowdownPct = 100 * float64(points[i].elapsed-base) / float64(base)
		}
	}
	return points, nil
}

// FaultsReport is the faults family's report.
type FaultsReport struct {
	Experiment string       `json:"experiment"`
	Seed       int64        `json:"seed"`
	Rates      []float64    `json:"rates"`
	Points     []FaultPoint `json:"points"`
}

// faults is the graceful-degradation experiment: elapsed time and stall as
// transient disk faults grow more frequent, for each app in each mode. The
// reproduction target is the shape (see EXPERIMENTS.md): speculating tracks
// manual's degradation curve, and no fault rate changes any program's output.
func faults(scale apps.Scale) (Report, error) {
	points, err := faultsSweep(scale)
	if err != nil {
		return nil, err
	}
	return &FaultsReport{"faults", faultSeed, FaultRates, points}, nil
}

func (r *FaultsReport) Text() string {
	t := newTable("Faults: elapsed time (s) vs transient-error rate (4 disks, seeded injection)")
	t.row(header("Series", "%g", r.Rates)...)
	// points are grouped (app, mode) in sweep order, one per rate per group.
	for i := 0; i < len(r.Points); i += len(r.Rates) {
		group := r.Points[i : i+len(r.Rates)]
		cells := []string{group[0].App + " " + group[0].Mode}
		for _, pt := range group {
			cells = append(cells, fmt.Sprintf("%.2f", pt.ElapsedSec))
		}
		t.row(cells...)
	}
	return t.Text()
}
