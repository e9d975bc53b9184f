// Package obs is the cross-layer observability subsystem: one structured
// event stream with per-layer lanes (disk service spans, cache admit/evict,
// TIP hint lifecycles, core reads/restarts, per-process lanes under
// multiprogramming), plus metric time series sampled on virtual-time ticks,
// with exporters to Chrome trace_event JSON (chrome://tracing / Perfetto)
// and a flat metrics JSON.
//
// Design constraints, in order:
//
//  1. Zero overhead when disabled. Every layer holds a *Trace that may be
//     nil; all methods are nil-safe, so an untraced run pays one pointer
//     test per would-be event and allocates nothing.
//  2. Determinism. A Trace only observes: it never schedules simulation
//     events, never perturbs the event queue, and samples metrics
//     opportunistically as virtual time passes through tick boundaries.
//     Enabling tracing therefore cannot change any run's cycle count —
//     internal/bench asserts this.
//  3. Bounded memory. The event list and the metric series are capped;
//     past the cap events are counted as dropped rather than recorded.
package obs

import (
	"fmt"

	"spechint/internal/sim"
)

// Config sizes a Trace. The zero value selects the defaults.
type Config struct {
	// MaxEvents caps the recorded event list; further events are dropped
	// (and counted). Default 1<<20.
	MaxEvents int

	// SampleInterval is the metric sampling period in virtual cycles.
	// Gauges are read at most once per interval, as virtual time passes a
	// tick boundary. Default 5_000_000 cycles (~21 ms of testbed time).
	SampleInterval sim.Time

	// MaxSamples caps the metric series. Default 1<<16.
	MaxSamples int

	// CyclesPerUsec converts virtual cycles to trace_event microsecond
	// timestamps. Default 233 (the testbed's 233 MHz processor).
	CyclesPerUsec float64
}

func (c Config) withDefaults() Config {
	if c.MaxEvents <= 0 {
		c.MaxEvents = 1 << 20
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = 5_000_000
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 1 << 16
	}
	if c.CyclesPerUsec <= 0 {
		c.CyclesPerUsec = 233
	}
	return c
}

// Event is one timeline entry. Dur is zero for instants and the span length
// for ranged events (disk service spans).
type Event struct {
	At     sim.Time
	Dur    sim.Time
	Lane   string // timeline row: "core", "tip", "cache", "disk0", "p1:gnuld/speculating"
	Cat    string // layer: "core", "tip", "cache", "disk", "multi"
	Name   string // event kind within the layer: "read", "hint", "evict", "demand"...
	Detail string // freeform arguments
}

// gauge is one registered metric source.
type gauge struct {
	name string
	fn   func() float64
}

// Point is one metric sample: every gauge read at one virtual time.
type Point struct {
	At     sim.Time
	Values []float64
}

// Trace is the recorder. A nil *Trace is valid everywhere and records
// nothing; construct with New to enable recording. A Trace obtained from
// Sub is a view onto its parent's buffers that prefixes lane and gauge
// names, so several instances of one layer (the per-shard TIP managers of a
// cluster, say) can share a single timeline without colliding lanes.
type Trace struct {
	cfg     Config
	events  []Event
	dropped int64

	gauges   []gauge
	points   []Point
	nextTick sim.Time

	parent *Trace // non-nil on Sub views; all storage lives on the parent
	prefix string
}

// New returns an empty enabled Trace.
func New(cfg Config) *Trace {
	return &Trace{cfg: cfg.withDefaults()}
}

// root resolves a view to the Trace that owns the buffers.
func (t *Trace) root() *Trace {
	if t.parent != nil {
		return t.parent
	}
	return t
}

// Sub returns a view of t whose events land on lanes (and whose gauges
// register under names) prefixed with prefix. The view shares the parent's
// event list, sample series and capacity bounds; Sub of a Sub concatenates
// prefixes. Sub of a nil Trace is nil, preserving the zero-overhead
// contract for untraced runs.
func (t *Trace) Sub(prefix string) *Trace {
	if t == nil {
		return nil
	}
	return &Trace{parent: t.root(), prefix: t.prefix + prefix}
}

// Enabled reports whether events are being recorded. It is the fast path
// guard: callers that must format a detail string check it first.
func (t *Trace) Enabled() bool { return t != nil }

// Emitf records an instant event with a formatted detail. The format
// arguments are evaluated by the caller either way; prefer
// `if t.Enabled() { t.Emitf(...) }` on hot paths.
func (t *Trace) Emitf(at sim.Time, lane, cat, name, format string, args ...any) {
	if t == nil {
		return
	}
	t.Span(at, 0, lane, cat, name, fmt.Sprintf(format, args...))
}

// Span records a ranged event covering [at, at+dur).
func (t *Trace) Span(at, dur sim.Time, lane, cat, name, detail string) {
	if t == nil {
		return
	}
	r := t.root()
	r.Tick(at + dur)
	if len(r.events) >= r.cfg.MaxEvents {
		r.dropped++
		return
	}
	r.events = append(r.events, Event{At: at, Dur: dur, Lane: t.prefix + lane, Cat: cat, Name: name, Detail: detail})
}

// Events returns the recorded timeline in emission order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	return t.root().events
}

// Dropped returns the number of events lost to the MaxEvents cap.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.root().dropped
}

// AddGauge registers a metric source, read on every sampling tick. Gauges
// must be pure observers of simulation state.
func (t *Trace) AddGauge(name string, fn func() float64) {
	if t == nil {
		return
	}
	r := t.root()
	r.gauges = append(r.gauges, gauge{t.prefix + name, fn})
}

// GaugeNames returns the registered gauge names, in registration order
// (the column order of every Point).
func (t *Trace) GaugeNames() []string {
	if t == nil {
		return nil
	}
	r := t.root()
	names := make([]string, len(r.gauges))
	for i, g := range r.gauges {
		names[i] = g.name
	}
	return names
}

// Points returns the sampled metric series.
func (t *Trace) Points() []Point {
	if t == nil {
		return nil
	}
	return t.root().points
}

// Tick samples the gauges if virtual time has passed the next tick boundary.
// The simulation's driver loop calls it once per scheduling iteration (and every
// Emit calls it implicitly), so the series advances with virtual time without
// the Trace ever scheduling events of its own.
func (t *Trace) Tick(now sim.Time) {
	if t == nil {
		return
	}
	r := t.root()
	if len(r.gauges) == 0 || now < r.nextTick || len(r.points) >= r.cfg.MaxSamples {
		return
	}
	vals := make([]float64, len(r.gauges))
	for i, g := range r.gauges {
		vals[i] = g.fn()
	}
	r.points = append(r.points, Point{At: now, Values: vals})
	// Realign to the tick grid so a long quiet period costs one sample, not
	// a burst of catch-up samples.
	r.nextTick = (now/r.cfg.SampleInterval + 1) * r.cfg.SampleInterval
}
