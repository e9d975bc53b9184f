package bench

import (
	"fmt"

	"spechint/internal/apps"
	"spechint/internal/core"
	"spechint/internal/multi"
)

// multiMaxN is the multiprogramming sweep's largest group.
const multiMaxN = 8

// multiMix fixes process i's application across every group size, so the
// N-process group is the (N-1)-process group plus one more process.
var multiMix = []apps.App{apps.Agrep, apps.XDataSlice, apps.Postgres, apps.Gnuld}

func multiSpecs(n int, mode core.Mode) []multi.ProcSpec {
	specs := make([]multi.ProcSpec, n)
	for i := range specs {
		specs[i] = multi.ProcSpec{App: multiMix[i%len(multiMix)], Mode: mode}
	}
	return specs
}

// MultiProc is one process's outcome inside a speculating group.
type MultiProc struct {
	Name       string  `json:"name"`
	App        string  `json:"app"`
	ElapsedSec float64 `json:"elapsed_sec"`
	SoloSec    float64 `json:"solo_sec"`
	Slowdown   float64 `json:"slowdown"`
	ReadCalls  int64   `json:"read_calls"`
	HintCalls  int64   `json:"hint_calls"`
}

// MultiPoint is one group size of the multiprogramming sweep.
type MultiPoint struct {
	N              int         `json:"n"`
	OrigSec        float64     `json:"orig_sec"`
	SpecSec        float64     `json:"spec_sec"`
	ImprovementPct float64     `json:"improvement_pct"`
	Throughput     float64     `json:"throughput_procs_per_sec"`
	Jain           float64     `json:"jain_fairness"`
	Procs          []MultiProc `json:"procs"`
}

// multiSweep runs original and speculating groups at every size 1..maxN on
// the shared testbed substrate. Per-process slowdown is measured against a
// solo speculating run of the identical workload instance (same per-process
// prefix and seeds, via FirstProcIndex); process i's workload does not
// depend on N, so one solo baseline serves every group size.
//
// Every simulation of the sweep — maxN solo baselines plus an original and
// a speculating group per size — is an independent cell, dispatched as one
// flat fan-out over the worker pool and reassembled in size order. The
// speculating group of one is solo baseline p0, so it is read, not rerun.
func multiSweep(scale apps.Scale) ([]MultiPoint, error) {
	const maxN = multiMaxN
	cfg := multi.DefaultConfig()

	// Cells 0..maxN-1: solo baselines. Cells maxN+2k, maxN+2k+1: the
	// original and speculating groups of size k+1.
	cells, err := parMap(3*maxN, func(i int) (*multi.Result, error) {
		if i == maxN+1 {
			return nil, nil
		}
		c, specs := cfg, []multi.ProcSpec{{App: multiMix[i%len(multiMix)], Mode: core.ModeSpeculating}}
		what := fmt.Sprintf("solo baseline p%d", i)
		if i < maxN {
			c.FirstProcIndex = i
		} else {
			n, mode := (i-maxN)/2+1, core.ModeNoHint
			if (i-maxN)%2 == 1 {
				mode = core.ModeSpeculating
			}
			specs, what = multiSpecs(n, mode), fmt.Sprintf("N=%d %v", n, mode)
		}
		g, err := multi.NewGroup(c, scale, specs)
		if err != nil {
			return nil, fmt.Errorf("bench: multi %s: %w", what, err)
		}
		res, err := g.Run()
		if err != nil {
			return nil, fmt.Errorf("bench: multi %s: %w", what, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	var points []MultiPoint
	for n := 1; n <= maxN; n++ {
		orig, spec := cells[maxN+2*(n-1)], cells[maxN+2*(n-1)+1]
		if n == 1 {
			spec = cells[0]
		}
		pt := MultiPoint{
			N:          n,
			OrigSec:    orig.Seconds(),
			SpecSec:    spec.Seconds(),
			Throughput: spec.Throughput(),
		}
		if pt.OrigSec > 0 {
			pt.ImprovementPct = 100 * (pt.OrigSec - pt.SpecSec) / pt.OrigSec
		}
		var slowdowns []float64
		for i, p := range spec.Procs {
			base := cells[i].Procs[0].Stats.Seconds()
			mp := MultiProc{
				Name:       p.Name,
				App:        p.App.String(),
				ElapsedSec: p.Stats.Seconds(),
				SoloSec:    base,
				ReadCalls:  p.Stats.ReadCalls,
				HintCalls:  p.Stats.Tip.HintCalls,
			}
			if base > 0 {
				mp.Slowdown = mp.ElapsedSec / base
			}
			slowdowns = append(slowdowns, mp.Slowdown)
			pt.Procs = append(pt.Procs, mp)
		}
		pt.Jain = multi.JainIndex(slowdowns)
		points = append(points, pt)
	}
	return points, nil
}

// MultiReport is the multi family's report.
type MultiReport struct {
	Experiment string       `json:"experiment"`
	MaxN       int          `json:"max_n"`
	Points     []MultiPoint `json:"points"`
}

// multiprogramming is the N-process experiment: N mixed processes (Agrep,
// XDataSlice, Postgres, Gnuld round-robin) share one TIP cache and disk
// array, originals vs speculating builds, for N = 1..multiMaxN. It reports
// makespan for both modes, the improvement from speculation, completed
// processes per second, and Jain's fairness index over per-process slowdowns
// (turnaround in the group / turnaround running alone).
func multiprogramming(scale apps.Scale) (Report, error) {
	points, err := multiSweep(scale)
	if err != nil {
		return nil, err
	}
	return &MultiReport{"multi", multiMaxN, points}, nil
}

func (r *MultiReport) Text() string {
	t := newTable("Multiprogramming: N mixed processes on one shared TIP (4 disks, 12 MB cache)")
	t.row("N", "original (s)", "speculating (s)", "improvement", "throughput (proc/s)", "Jain fairness")
	for _, pt := range r.Points {
		t.row(fmt.Sprintf("%d", pt.N),
			fmt.Sprintf("%.2f", pt.OrigSec),
			fmt.Sprintf("%.2f", pt.SpecSec),
			pct(pt.ImprovementPct),
			fmt.Sprintf("%.2f", pt.Throughput),
			fmt.Sprintf("%.3f", pt.Jain))
	}

	last := r.Points[len(r.Points)-1]
	bt := newTable(fmt.Sprintf("\nPer-process breakdown at N=%d (speculating)", last.N))
	bt.row("Process", "App", "elapsed (s)", "solo (s)", "slowdown", "reads", "hints")
	for _, p := range last.Procs {
		bt.row(p.Name, p.App,
			fmt.Sprintf("%.2f", p.ElapsedSec),
			fmt.Sprintf("%.2f", p.SoloSec),
			fmt.Sprintf("%.2fx", p.Slowdown),
			fmt.Sprintf("%d", p.ReadCalls),
			fmt.Sprintf("%d", p.HintCalls))
	}
	return t.Text() + bt.Text()
}
