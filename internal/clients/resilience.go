package clients

// Client-side resilience policy: the pure decision machinery a cluster client
// wires between itself and a shard that can shed, error, or die. Two pieces
// live here, both free of clocks and I/O so they are unit-testable and
// deterministic by construction:
//
//   - RetryPolicy: capped exponential backoff with seeded multiplicative
//     jitter and a per-operation virtual-time deadline. The jitter stream is
//     a pure function of (seed, client, session, op, attempt), so a retry
//     schedule is byte-identical across runs and across parallel fan-out
//     widths — the same contract the population generator keeps.
//
//   - Breaker: a per-shard circuit breaker. TripAfter consecutive failures
//     open it; after Cooldown cycles it half-opens and admits exactly one
//     probe; the probe's outcome either closes it or re-opens it for another
//     cooldown. While open, the client fails fast locally instead of adding
//     retry load to a shard that is already drowning.

import "fmt"

// RetryPolicy decides how a client reacts to SHED/EIO/DEAD responses.
// All durations are virtual CPU cycles.
type RetryPolicy struct {
	// MaxAttempts bounds the total sends of one request part (first try
	// included). 1 means never retry; 0 is invalid.
	MaxAttempts int

	// BaseBackoff is the pre-jitter backoff after the first failure; each
	// further failure doubles it up to MaxBackoff (capped exponential).
	BaseBackoff int64
	MaxBackoff  int64

	// Deadline bounds one read operation end to end: once a part's next
	// retry could not be sent before issueAt+Deadline, the client gives up
	// and the operation fails. 0 disables the deadline.
	Deadline int64

	// JitterSeed seeds the deterministic jitter stream.
	JitterSeed int64
}

// Validate reports a policy error, if any.
func (rp RetryPolicy) Validate() error {
	switch {
	case rp.MaxAttempts < 1:
		return fmt.Errorf("clients: retry MaxAttempts = %d, want >= 1", rp.MaxAttempts)
	case rp.BaseBackoff < 0 || rp.MaxBackoff < 0 || rp.Deadline < 0:
		return fmt.Errorf("clients: negative retry BaseBackoff, MaxBackoff or Deadline")
	case rp.MaxBackoff > 0 && rp.BaseBackoff > rp.MaxBackoff:
		return fmt.Errorf("clients: retry BaseBackoff %d > MaxBackoff %d", rp.BaseBackoff, rp.MaxBackoff)
	}
	return nil
}

// Backoff returns the jittered delay before retry number `attempt` (attempt 1
// is the first retry, i.e. the second send) of op `op` of session `session`
// of client `client`. The pre-jitter delay doubles per attempt from
// BaseBackoff, saturating at MaxBackoff; the jitter multiplies it by a
// deterministic factor in [0.5, 1.5) drawn from the policy's seed and the
// full request identity, so concurrent clients never synchronize their
// retries (no retry storms) yet every run replays identically.
func (rp RetryPolicy) Backoff(client, session, op, attempt int) int64 {
	if attempt < 1 || rp.BaseBackoff == 0 {
		return 0
	}
	d := rp.BaseBackoff
	for i := 1; i < attempt; i++ {
		d <<= 1
		if rp.MaxBackoff > 0 && d >= rp.MaxBackoff {
			d = rp.MaxBackoff
			break
		}
	}
	if rp.MaxBackoff > 0 && d > rp.MaxBackoff {
		d = rp.MaxBackoff
	}
	h := splitmix64(uint64(rp.JitterSeed) ^
		uint64(client)*0x9E3779B97F4A7C15 ^
		uint64(session)*0xD1B54A32D192ED03 ^
		uint64(op)*0x94D049BB133111EB ^
		uint64(attempt)*0xBF58476D1CE4E5B9)
	// Map the hash to [0.5, 1.5): 53 uniform bits over a unit interval.
	jitter := 0.5 + float64(h>>11)/float64(1<<53)
	return int64(float64(d) * jitter)
}

// BreakerConfig shapes a circuit breaker.
type BreakerConfig struct {
	// TripAfter is the consecutive-failure count that opens the breaker.
	// 0 disables the breaker entirely (Allow always says yes).
	TripAfter int

	// Cooldown is how long the breaker stays open before half-opening, in
	// cycles.
	Cooldown int64
}

// Validate reports a breaker configuration error, if any.
func (bc BreakerConfig) Validate() error {
	switch {
	case bc.TripAfter < 0:
		return fmt.Errorf("clients: breaker TripAfter = %d, want >= 0", bc.TripAfter)
	case bc.TripAfter > 0 && bc.Cooldown < 1:
		return fmt.Errorf("clients: breaker Cooldown = %d, want >= 1 when TripAfter > 0", bc.Cooldown)
	}
	return nil
}

// BreakerState is the observable state of a Breaker.
type BreakerState uint8

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state for diagnostics.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", uint8(s))
}

// Breaker is one client's circuit breaker toward one shard. The zero value
// with a zero config is a breaker that never trips. Not safe for concurrent
// use; each client owns its own breakers (a client is a single strand of the
// deterministic event loop).
type Breaker struct {
	cfg      BreakerConfig
	fails    int   // consecutive failures while closed
	reopenAt int64 // when it may half-open
	open     bool
	probing  bool // half-open probe in flight

	trips int64 // lifetime trip count
}

// NewBreaker returns a closed breaker with the given config.
func NewBreaker(cfg BreakerConfig) *Breaker { return &Breaker{cfg: cfg} }

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int64 { return b.trips }

// State reports the breaker's state as of virtual time now.
func (b *Breaker) State(now int64) BreakerState {
	switch {
	case !b.open:
		return BreakerClosed
	case b.probing || now >= b.reopenAt:
		return BreakerHalfOpen
	default:
		return BreakerOpen
	}
}

// Allow reports whether a request may be sent at time now. In the half-open
// state the first Allow admits a single probe; further requests are refused
// until the probe's outcome arrives via OnSuccess or OnFailure.
func (b *Breaker) Allow(now int64) bool {
	if b.cfg.TripAfter <= 0 || !b.open {
		return true
	}
	if b.probing || now < b.reopenAt {
		return false
	}
	b.probing = true
	return true
}

// OnSuccess records a successful response: a closed breaker clears its
// failure run; a half-open probe's success closes the breaker.
func (b *Breaker) OnSuccess() {
	b.fails = 0
	b.open = false
	b.probing = false
}

// OnFailure records a failed response (shed, error, or dead shard) at time
// now: a closed breaker trips once the run reaches TripAfter; a half-open
// probe's failure re-opens for another cooldown.
func (b *Breaker) OnFailure(now int64) {
	if b.cfg.TripAfter <= 0 {
		return
	}
	if b.open {
		// Probe failed (or a straggler reply landed while open): back to a
		// full cooldown from now.
		b.probing = false
		b.reopenAt = now + b.cfg.Cooldown
		return
	}
	b.fails++
	if b.fails >= b.cfg.TripAfter {
		b.open = true
		b.probing = false
		b.fails = 0
		b.reopenAt = now + b.cfg.Cooldown
		b.trips++
	}
}
