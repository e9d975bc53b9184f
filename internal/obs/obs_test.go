package obs

import (
	"encoding/json"
	"testing"

	"spechint/internal/sim"
)

// TestNilTraceIsSafe exercises every method on a nil *Trace: the disabled
// path must be a no-op, never a panic.
func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	tr.Emit(1, "lane", "cat", "name", "detail")
	tr.Emitf(1, "lane", "cat", "name", "x=%d", 7)
	tr.Span(1, 2, "lane", "cat", "name", "detail")
	tr.AddGauge("g", func() float64 { return 1 })
	tr.Tick(100)
	if tr.Events() != nil || tr.Points() != nil || tr.GaugeNames() != nil {
		t.Fatal("nil trace returned non-nil data")
	}
	if tr.Dropped() != 0 {
		t.Fatal("nil trace reports drops")
	}
	if _, err := tr.ChromeTraceJSON(); err == nil {
		t.Fatal("ChromeTraceJSON on nil trace must error")
	}
	if _, err := tr.MetricsJSON(); err == nil {
		t.Fatal("MetricsJSON on nil trace must error")
	}
}

func TestEventCapCountsDropped(t *testing.T) {
	tr := New(Config{MaxEvents: 3})
	for i := 0; i < 10; i++ {
		tr.Emit(sim.Time(i), "l", "c", "n", "")
	}
	if len(tr.Events()) != 3 {
		t.Fatalf("recorded %d events, want 3", len(tr.Events()))
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped())
	}
}

// TestTickCadence: gauges sample at most once per interval, realigned to the
// grid, and every Emit ticks implicitly.
func TestTickCadence(t *testing.T) {
	tr := New(Config{SampleInterval: 100})
	v := 0.0
	tr.AddGauge("v", func() float64 { return v })

	tr.Tick(0) // at the first boundary (nextTick starts at 0)
	v = 1
	tr.Tick(50) // inside the first interval: no sample
	tr.Tick(99)
	v = 2
	tr.Tick(100) // next boundary
	tr.Tick(101) // just past it: no sample
	v = 3
	tr.Tick(1000) // long quiet gap: exactly one catch-up sample

	pts := tr.Points()
	if len(pts) != 3 {
		t.Fatalf("got %d samples, want 3: %+v", len(pts), pts)
	}
	wantAt := []sim.Time{0, 100, 1000}
	wantV := []float64{0, 2, 3}
	for i, p := range pts {
		if p.At != wantAt[i] || p.Values[0] != wantV[i] {
			t.Fatalf("sample %d = (%d, %v), want (%d, %v)", i, p.At, p.Values[0], wantAt[i], wantV[i])
		}
	}

	// A quiet period then one sample, not a catch-up burst.
	tr.Tick(1050)
	if len(tr.Points()) != 3 {
		t.Fatal("sampled inside the realigned interval")
	}
	tr.Emit(1100, "l", "c", "n", "") // Emit ticks implicitly
	if len(tr.Points()) != 4 {
		t.Fatal("Emit did not tick the sampler")
	}
}

func TestSampleCap(t *testing.T) {
	tr := New(Config{SampleInterval: 10, MaxSamples: 2})
	tr.AddGauge("g", func() float64 { return 0 })
	for i := sim.Time(0); i < 1000; i += 10 {
		tr.Tick(i)
	}
	if len(tr.Points()) != 2 {
		t.Fatalf("got %d samples, want the cap of 2", len(tr.Points()))
	}
}

// TestChromeTraceJSONShape parses the export back and checks the trace_event
// invariants the CI smoke test also relies on: named threads, spans with
// durations, instants with scope, counters for gauges.
func TestChromeTraceJSONShape(t *testing.T) {
	tr := New(Config{SampleInterval: 100, CyclesPerUsec: 233})
	tr.AddGauge("depth", func() float64 { return 4 })
	tr.Span(233, 466, "disk0", "disk", "demand", "phys=9")
	tr.Emit(466, "core", "core", "read", "f off=0")
	tr.Tick(500)

	raw, err := tr.ChromeTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	byPh := map[string]int{}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		byPh[e.Ph]++
		if e.Ph == "M" && e.Name == "thread_name" {
			names[e.Args["name"].(string)] = true
		}
		if e.Ph == "X" && e.Dur <= 0 {
			t.Fatalf("span with no duration: %+v", e)
		}
		if e.Ph == "i" && e.S != "t" {
			t.Fatalf("instant without thread scope: %+v", e)
		}
	}
	if byPh["X"] != 1 || byPh["i"] != 1 || byPh["C"] != 1 || byPh["M"] == 0 {
		t.Fatalf("phase counts %v, want one X, one i, one C and metadata", byPh)
	}
	if !names["disk0"] || !names["core"] {
		t.Fatalf("lane metadata missing: %v", names)
	}
	// 233 cycles at 233 cycles/us is exactly 1 us.
	if doc.TraceEvents[0].Name != "thread_name" {
		t.Fatal("metadata must precede the lane's first event")
	}
	if doc.OtherData["dropped_events"].(float64) != 0 {
		t.Fatal("dropped_events should be 0")
	}
}

func TestMetricsJSONShape(t *testing.T) {
	tr := New(Config{SampleInterval: 50})
	tr.AddGauge("a", func() float64 { return 1 })
	tr.AddGauge("b", func() float64 { return 2 })
	tr.Tick(0)
	tr.Tick(50)

	raw, err := tr.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		SampleIntervalCycles int64 `json:"sample_interval_cycles"`
		Names                []string
		Points               []struct {
			At     int64     `json:"at"`
			Values []float64 `json:"values"`
		}
		DroppedEvents int64 `json:"dropped_events"`
		Events        int   `json:"events"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.SampleIntervalCycles != 50 || len(doc.Names) != 2 || len(doc.Points) != 2 {
		t.Fatalf("doc shape: %+v", doc)
	}
	for _, p := range doc.Points {
		if len(p.Values) != len(doc.Names) {
			t.Fatalf("point width %d != %d names", len(p.Values), len(doc.Names))
		}
	}
}

func TestDefaults(t *testing.T) {
	tr := New(Config{})
	if tr.cfg.MaxEvents != 1<<20 || tr.cfg.SampleInterval != 5_000_000 ||
		tr.cfg.MaxSamples != 1<<16 || tr.cfg.CyclesPerUsec != 233 {
		t.Fatalf("defaults: %+v", tr.cfg)
	}
}

// Emit records an instant event.
func (t *Trace) Emit(at sim.Time, lane, cat, name, detail string) {
	t.Span(at, 0, lane, cat, name, detail)
}
