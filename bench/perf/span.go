package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// span is one harness-side timing interval around a call into a layer's
// public API. Spans nest workload → rep → cell → call; Parent is the index
// of the enclosing span (-1 for the root) and Cell names the cell every span
// of one simulated run shares.
type span struct {
	Name   string
	Cell   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent int
}

// tracer records spans in memory; nothing is written until the run ends. A
// nil *tracer records nothing, so the untraced path pays one pointer test.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	cell  string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns the function that closes it:
//
//	defer tr.begin("asm.assemble")()
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Cell: t.cell, Start: time.Since(t.epoch), Parent: parent})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.epoch)
		t.open = t.open[:len(t.open)-1]
	}
}

// inCell opens the cell's span and tags every span opened inside it with
// the cell's id. The returned function also closes any span the cell left
// open (a cell that failed or panicked midway), so one bad cell cannot
// unbalance the rest of the trace.
func (t *tracer) inCell(id string) func() {
	if t == nil {
		return func() {}
	}
	t.cell = id
	depth := len(t.open)
	t.begin("cell")
	return func() {
		now := time.Since(t.epoch)
		for _, i := range t.open[depth:] {
			t.spans[i].End = now
		}
		t.open = t.open[:depth]
		t.cell = ""
	}
}

// seconds returns the summed duration of every span called name.
func (t *tracer) seconds(name string) float64 {
	if t == nil {
		return 0
	}
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d.Seconds()
}

// selfTimes returns each span name's self time: its spans' durations minus
// the parts their direct children cover. Self times of a properly nested
// trace sum exactly to the root span's duration.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// selfTable renders the self-time table, largest first, with each row's
// share of the root span.
func (t *tracer) selfTable() string {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	var total time.Duration
	for n, d := range self {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %7s\n", "span (self time)", "seconds", "share")
	for _, n := range names {
		fmt.Fprintf(&b, "%-28s %10.4f %6.1f%%\n", n, self[n].Seconds(), 100*self[n].Seconds()/total.Seconds())
	}
	fmt.Fprintf(&b, "%-28s %10.4f\n", "sum", total.Seconds())
	return b.String()
}

// chromeJSON renders the spans as Chrome trace_event complete events; load
// the file in chrome://tracing or ui.perfetto.dev.
func (t *tracer) chromeJSON() ([]byte, error) {
	type ev struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	evs := make([]ev, 0, len(t.spans))
	for i, s := range t.spans {
		e := ev{Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]string{"id": fmt.Sprint(i), "parent": fmt.Sprint(s.Parent)}}
		if s.Cell != "" {
			e.Args["cell"] = s.Cell
		}
		evs = append(evs, e)
	}
	return json.Marshal(struct {
		TraceEvents []ev `json:"traceEvents"`
	}{evs})
}
