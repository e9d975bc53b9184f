// Package fault is the deterministic fault-injection subsystem: a seeded
// Plan decides, per disk request, whether the request fails, how long it is
// delayed, and whether its disk has died outright. The disk array consults
// the plan at service time (disk.Array.SetInjector), so every fault lands at
// a reproducible virtual cycle — the same seed and plan always produce the
// same schedule of failures.
//
// Four fault classes are modeled, matching what a production array actually
// suffers:
//
//   - transient read errors: each request fails with probability Rate; a
//     triggered fault optionally extends into a burst of Burst consecutive
//     failures on that disk (media defects cluster);
//   - latency spikes: each request's service time is multiplied by
//     SpikeFactor with probability SpikeRate (thermal recalibration, retries
//     inside the drive);
//   - fail-N-then-succeed: the first FailN attempts to read any given
//     physical block fail, after which reads of it succeed (sector remapping
//     after retries) — a guaranteed-recovery pattern the retry machinery can
//     be validated against;
//   - permanent disk death: disk D stops returning data at virtual time T
//     (DieDisk/DieAt); every request on it, queued or future, completes with
//     an error.
//
// The plan is pure policy: it owns no clock and schedules no events. All
// randomness comes from a splitmix64 stream seeded at construction, advanced
// once per decision, so injection is deterministic given the (deterministic)
// order of disk service.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"spechint/internal/sim"
)

// Plan is one seeded fault schedule. The zero value injects nothing; use
// NewPlan or Parse.
type Plan struct {
	Seed int64

	// Rate is the per-request transient read-error probability in [0, 1).
	Rate float64
	// Burst extends a triggered transient fault to this many consecutive
	// failing requests on the same disk (default 1: no clustering).
	Burst int

	// SpikeRate is the per-request probability of a latency spike;
	// SpikeFactor multiplies the service time when one hits (default 4).
	SpikeRate   float64
	SpikeFactor int

	// FailN makes the first FailN read attempts of each physical block fail
	// before reads of it succeed. Zero disables the pattern.
	FailN int

	// DieDisk/DieAt kill one disk permanently at virtual time DieAt.
	// DieDisk < 0 (the default) disables disk death; DieAt must be > 0 when
	// a disk is named, so the zero value of Plan injects nothing.
	DieDisk int
	DieAt   sim.Time

	// DieShard/DieShardAt kill one whole cluster shard at virtual time
	// DieShardAt: queued requests fail, the ring re-routes its keys to
	// survivors. DieShard < 0 disables it; DieShardAt must be > 0 when a
	// shard is named (zero value injects nothing).
	DieShard   int
	DieShardAt sim.Time

	// BrownShard browns shard BrownShard out over [BrownAt, BrownUntil):
	// during the window its effective service rate drops by BrownFactor
	// (the shard stretches each dispatch), so queues grow and admission
	// control has something real to shed against. BrownShard < 0 disables
	// it; the window must be non-empty when a shard is named.
	BrownShard  int
	BrownAt     sim.Time
	BrownUntil  sim.Time
	BrownFactor int

	rng       uint64
	burstLeft map[int]int      // per-disk remaining burst failures
	attempts  map[[2]int64]int // (disk, phys) -> failed attempts so far
	stats     Stats
}

// Stats counts what the plan actually injected.
type Stats struct {
	Requests   int64 // requests the plan ruled on
	Transient  int64 // transient failures injected (including burst tails)
	Spikes     int64 // latency spikes injected
	FailNFails int64 // fail-N-then-succeed failures injected
	DeadHits   int64 // requests that found their disk dead
}

// NewPlan returns a plan with the given seed and defaults applied.
func NewPlan(seed int64) *Plan {
	p := &Plan{Seed: seed, DieDisk: -1, DieShard: -1, BrownShard: -1}
	p.init()
	return p
}

func (p *Plan) init() {
	if p.Burst <= 0 {
		p.Burst = 1
	}
	if p.SpikeFactor <= 0 {
		p.SpikeFactor = 4
	}
	if p.BrownFactor <= 0 {
		p.BrownFactor = 8
	}
	p.rng = uint64(p.Seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	p.burstLeft = make(map[int]int)
	p.attempts = make(map[[2]int64]int)
}

// Validate reports a plan error, if any.
func (p *Plan) Validate() error {
	switch {
	case p.Rate < 0 || p.Rate >= 1:
		return fmt.Errorf("fault: rate %g, want [0, 1)", p.Rate)
	case p.SpikeRate < 0 || p.SpikeRate >= 1:
		return fmt.Errorf("fault: spike rate %g, want [0, 1)", p.SpikeRate)
	case p.Burst < 1:
		return fmt.Errorf("fault: burst %d, want >= 1", p.Burst)
	case p.SpikeFactor < 1:
		return fmt.Errorf("fault: spike factor %d, want >= 1", p.SpikeFactor)
	case p.FailN < 0:
		return fmt.Errorf("fault: failn %d, want >= 0", p.FailN)
	case p.DieDisk >= 0 && p.DieAt <= 0:
		return fmt.Errorf("fault: die time %d, want > 0", p.DieAt)
	case p.DieShard >= 0 && p.DieShardAt <= 0:
		return fmt.Errorf("fault: shard die time %d, want > 0", p.DieShardAt)
	case p.BrownShard >= 0 && (p.BrownAt <= 0 || p.BrownUntil <= p.BrownAt):
		return fmt.Errorf("fault: brownout window [%d, %d), want 0 < from < until", p.BrownAt, p.BrownUntil)
	case p.BrownShard >= 0 && p.BrownFactor < 2:
		return fmt.Errorf("fault: brownout factor %d, want >= 2", p.BrownFactor)
	}
	return nil
}

// ValidateDisk validates a plan about to be installed on a disk array (a solo
// run or a multiprogramming group). A plan has two halves and each consumer
// installs one — a disk array's injector acts on rate, burst, spike, failn
// and die; a cluster acts on dieshard and brown — so ValidateDisk and
// ValidateShard each also reject, by spec key, a fault from the other half:
// no part of a plan is ever silently ignored.
func (p *Plan) ValidateDisk() error {
	switch {
	case p.DieShard >= 0:
		return fmt.Errorf("fault: dieshard acts on a cluster shard; this run has none")
	case p.BrownShard >= 0:
		return fmt.Errorf("fault: brown acts on a cluster shard; this run has none")
	}
	return p.Validate()
}

// ValidateShard validates a plan about to be handed to a cluster.
func (p *Plan) ValidateShard() error {
	key := ""
	switch {
	case p.Rate > 0:
		key = "rate"
	case p.Burst > 1:
		key = "burst"
	case p.SpikeRate > 0:
		key = "spike"
	case p.FailN > 0:
		key = "failn"
	case p.DieDisk >= 0:
		key = "die"
	}
	if key != "" {
		return fmt.Errorf("fault: %s acts on a disk array; a cluster installs only dieshard and brown", key)
	}
	return p.Validate()
}

// ShardBrownFactor returns the service-stretch factor for shard `shard` at
// time now: 1 outside any brownout window, BrownFactor inside it.
func (p *Plan) ShardBrownFactor(shard int, now sim.Time) int {
	if p.BrownShard == shard && now >= p.BrownAt && now < p.BrownUntil {
		return p.BrownFactor
	}
	return 1
}

// next advances the splitmix64 stream.
func (p *Plan) next() uint64 {
	p.rng += 0x9e3779b97f4a7c15
	z := p.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance draws one uniform [0,1) variate and compares it against prob.
func (p *Plan) chance(prob float64) bool {
	if prob <= 0 {
		return false
	}
	return float64(p.next()>>11)/float64(1<<53) < prob
}

// DiskDead reports whether disk has permanently failed as of now. It
// implements disk.Injector.
func (p *Plan) DiskDead(disk int, now sim.Time) bool {
	return p.DieDisk == disk && p.DieAt > 0 && now >= p.DieAt
}

// Outcome rules on one request entering service: spikeFactor multiplies the
// media service time (1 = no spike) and fail says the request completes with
// a transient error. It implements disk.Injector; the caller handles dead
// disks via DiskDead before asking. The decision order (spike draw, then
// fault draw) is fixed so the stream stays aligned across runs.
func (p *Plan) Outcome(disk int, phys int64, now sim.Time) (spikeFactor int, fail bool) {
	if p.burstLeft == nil {
		p.init()
	}
	p.stats.Requests++
	spikeFactor = 1
	if p.chance(p.SpikeRate) {
		spikeFactor = p.SpikeFactor
		p.stats.Spikes++
	}
	if p.FailN > 0 {
		key := [2]int64{int64(disk), phys}
		if p.attempts[key] < p.FailN {
			p.attempts[key]++
			p.stats.FailNFails++
			return spikeFactor, true
		}
	}
	if left := p.burstLeft[disk]; left > 0 {
		p.burstLeft[disk] = left - 1
		p.stats.Transient++
		return spikeFactor, true
	}
	if p.chance(p.Rate) {
		p.burstLeft[disk] = p.Burst - 1
		p.stats.Transient++
		return spikeFactor, true
	}
	return spikeFactor, false
}

// NoteDeadHit counts a request that found its disk dead (the array calls it
// so plan stats cover every injected outcome).
func (p *Plan) NoteDeadHit() { p.stats.DeadHits++ }

// String renders the plan in Parse's spec syntax.
func (p *Plan) String() string {
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	add(fmt.Sprintf("seed=%d", p.Seed))
	if p.Rate > 0 {
		add(fmt.Sprintf("rate=%g", p.Rate))
	}
	if p.Burst > 1 {
		add(fmt.Sprintf("burst=%d", p.Burst))
	}
	if p.SpikeRate > 0 {
		add(fmt.Sprintf("spike=%gx%d", p.SpikeRate, p.SpikeFactor))
	}
	if p.FailN > 0 {
		add(fmt.Sprintf("failn=%d", p.FailN))
	}
	if p.DieDisk >= 0 {
		add(fmt.Sprintf("die=%d@%d", p.DieDisk, p.DieAt))
	}
	if p.DieShard >= 0 {
		add(fmt.Sprintf("dieshard=%d@%d", p.DieShard, p.DieShardAt))
	}
	if p.BrownShard >= 0 {
		add(fmt.Sprintf("brown=%d@%d-%dx%d", p.BrownShard, p.BrownAt, p.BrownUntil, p.BrownFactor))
	}
	return strings.Join(parts, ",")
}

// Parse builds a plan from a comma-separated spec, e.g.
//
//	rate=0.01,seed=42
//	rate=0.05,burst=3,spike=0.02x8,failn=2,die=1@2e9,seed=7
//
// Keys: seed (int), rate (probability), burst (int), spike (probability, or
// probability x factor), failn (int), die (disk@cycles; cycles may use
// scientific notation). Unknown keys are errors.
func Parse(spec string) (*Plan, error) {
	p := NewPlan(0)
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad spec element %q, want key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "rate":
			p.Rate, err = strconv.ParseFloat(v, 64)
		case "burst":
			p.Burst, err = strconv.Atoi(v)
		case "failn":
			p.FailN, err = strconv.Atoi(v)
		case "spike":
			rate, factor, found := strings.Cut(v, "x")
			if p.SpikeRate, err = strconv.ParseFloat(rate, 64); err == nil && found {
				p.SpikeFactor, err = strconv.Atoi(factor)
			}
		case "die":
			dk, at, found := strings.Cut(v, "@")
			if !found {
				return nil, fmt.Errorf("fault: die=%q, want die=disk@cycles", v)
			}
			if p.DieDisk, err = strconv.Atoi(dk); err == nil {
				var f float64
				f, err = strconv.ParseFloat(at, 64)
				p.DieAt = sim.Time(f)
			}
		case "dieshard":
			sh, at, found := strings.Cut(v, "@")
			if !found {
				return nil, fmt.Errorf("fault: dieshard=%q, want dieshard=shard@cycles", v)
			}
			if p.DieShard, err = strconv.Atoi(sh); err == nil {
				var f float64
				f, err = strconv.ParseFloat(at, 64)
				p.DieShardAt = sim.Time(f)
			}
		case "brown":
			// brown=shard@from-untilxfactor; the factor suffix is optional.
			sh, win, found := strings.Cut(v, "@")
			if !found {
				return nil, fmt.Errorf("fault: brown=%q, want brown=shard@from-until[xfactor]", v)
			}
			if p.BrownShard, err = strconv.Atoi(sh); err != nil {
				return nil, fmt.Errorf("fault: bad brown=%q: %v", v, err)
			}
			if rng, factor, hasF := strings.Cut(win, "x"); true {
				from, until, ok := strings.Cut(rng, "-")
				if !ok {
					return nil, fmt.Errorf("fault: brown=%q, want a from-until window", v)
				}
				var f float64
				if f, err = strconv.ParseFloat(from, 64); err == nil {
					p.BrownAt = sim.Time(f)
					if f, err = strconv.ParseFloat(until, 64); err == nil {
						p.BrownUntil = sim.Time(f)
					}
				}
				if err == nil && hasF {
					p.BrownFactor, err = strconv.Atoi(factor)
				}
			}
		default:
			return nil, fmt.Errorf("fault: unknown key %q (have %s)", k, knownKeys)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: bad %s=%q: %v", k, v, err)
		}
	}
	// Validate before init: an explicit burst=0 or spike factor 0 is an
	// error, not something the defaulting should paper over.
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.init() // re-seed with the parsed seed
	return p, nil
}

const knownKeys = "seed, rate, burst, spike, failn, die, dieshard, brown"

// Keys returns the sorted spec keys (for CLI help).
func Keys() []string {
	ks := strings.Split(knownKeys, ", ")
	sort.Strings(ks)
	return ks
}
