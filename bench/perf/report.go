package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
)

// report is everything one invocation found: the contract's result line plus
// what a reader of results/*.json needs to place the numbers.
type report struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Trace       int                    `json:"trace"`
	Reps        int                    `json:"reps"`
	Commit      string                 `json:"commit"`
	GoVersion   string                 `json:"go_version"`
	NProc       int                    `json:"nproc"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Failures    []string               `json:"failures,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	WallS       float64                `json:"wall_s,omitempty"`        // Σ over cells of the fastest repetition
	WallMedianS float64                `json:"wall_median_s,omitempty"` // Σ over cells of the median repetition
	Ops         int64                  `json:"ops,omitempty"`           // the divisor of host_ns_per_op
	RepWalls    []float64              `json:"rep_wall_s,omitempty"`    // each repetition's own total, in order
	Cells       []cellReport           `json:"cells,omitempty"`
	// The quiet gate (quiet.go): seconds cells were held back while the core's
	// sibling thread was busy, and the probe's quiet level.
	QuietWaitS   float64 `json:"quiet_wait_s,omitempty"`
	QuietHops    int     `json:"quiet_hops,omitempty"`
	QuietProbeMS float64 `json:"quiet_probe_ms,omitempty"`
	TraceFile    string  `json:"trace_file,omitempty"`
	SelfTable    string  `json:"-"`

	defs []metricDef // the registry list this run reports
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type cellReport struct {
	ID       string  `json:"id"`
	WallS    float64 `json:"wall_s"`     // median over the repetitions
	WallMinS float64 `json:"wall_min_s"` // fastest repetition
	VirtS    float64 `json:"virt_s"`
	Instrs   int64   `json:"instrs"`
	Reads    int64   `json:"reads"`
}

// count adds one repetition's cells to the attempted and failed totals.
func (r *report) count(p *plan, rep *repetition, prefix string) {
	r.Attempted += len(p.cells)
	r.Failed += rep.failed()
	for j, err := range rep.errs {
		if err != nil {
			r.Failures = append(r.Failures, fmt.Sprintf("%s%s: %v", prefix, p.cells[j].id, err))
		}
	}
}

// fill turns the measured values into the report's metrics, holding them to
// the registry: every registered metric is reported, nothing unregistered is,
// and an end-to-end metric is never zero.
func (r *report) fill(m metrics, endToEnd bool) error {
	r.Correct = r.Failed == 0
	r.Metrics = map[string]metricValue{}
	known := map[string]bool{}
	for _, d := range r.defs {
		known[d.Name] = true
		v, ok := m[d.Name]
		if endToEnd && (!ok || v == 0) {
			return fmt.Errorf("end-to-end metric %s was not measured on %s", d.Name, r.Workload)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range m {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics measured but not in BENCHMARK.json: %v", extra)
	}
	return nil
}

// result is the contract's last line.
func (r *report) result() any {
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// print writes every metric by name with unit, direction and bound.
func (r *report) print(w io.Writer) {
	kind := "end-to-end"
	if r.Trace == 1 {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  reps %d", r.Workload, r.Seed, kind, r.Reps)
	if r.Trace == 0 {
		fmt.Fprint(w, "  (host time from the fastest repetition, cell by cell; too few samples for a tail percentile)")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-36s %16s  %-10s %-7s %s\n", "metric", "value", "unit", "better", "bound")
	for _, d := range r.defs {
		bound := "-"
		if d.Bound != nil {
			bound = fmt.Sprintf("%.0f%%", *d.Bound*100)
		}
		fmt.Fprintf(w, "%-36s %16.6g  %-10s %-7s %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit, d.Better, bound)
	}
	if len(r.RepWalls) > 0 {
		fmt.Fprintf(w, "wall per repetition: %.3f s fastest cell by cell, %.3f s median cell by cell, over %d ops; totals %.3f\n",
			r.WallS, r.WallMedianS, r.Ops, r.RepWalls)
		fmt.Fprintf(w, "quiet gate: held cells back %.2f s in all and changed CPU %d times; a quiet probe takes %.2f ms\n", r.QuietWaitS, r.QuietHops, r.QuietProbeMS)
	}
	fmt.Fprintf(w, "cells attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "FAILED", f)
	}
	if r.SelfTable != "" {
		fmt.Fprintf(w, "trace written to %s\n%s", r.TraceFile, r.SelfTable)
	}
}

// appendTo adds the report to the JSON array in path, creating the file.
func (r *report) appendTo(path string) error {
	var all []json.RawMessage
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	one, err := json.Marshal(r)
	if err != nil {
		return err
	}
	all = append(all, one)
	out, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
