package tip

// The degradation policy: what happens to a block whose fetch completed with
// an error — retry after a capped backoff, demote, or fail the readers.

import (
	"fmt"

	"spechint/internal/cache"
	"spechint/internal/disk"
	"spechint/internal/sim"
)

// Retry backoff defaults, in cycles (~2 ms and ~70 ms of testbed time).
const (
	defaultRetryBase = 500_000
	defaultRetryCap  = 16_000_000
)

// retryBackoff returns the capped exponential backoff before retry attempt
// (1-based) of a failed fetch.
func (c Config) retryBackoff(attempt int) sim.Time {
	base, lim := c.RetryBaseCycles, c.RetryCapCycles
	if base == 0 {
		base = defaultRetryBase
	}
	if lim == 0 {
		lim = defaultRetryCap
	}
	return sim.Time(min(base<<uint(min(attempt-1, 30)), lim))
}

// FaultCounters aggregates the manager's degradation activity: what the
// fault-injection subsystem caused and how TIP absorbed it. They are
// substrate-wide (faults hit the shared array, not one hint stream).
type FaultCounters struct {
	FetchErrors   int64 // disk completions that returned an error
	FetchRetries  int64 // failed fetches re-submitted after backoff
	DemotedBlocks int64 // prefetched blocks dropped after repeated failures
	FailedDemand  int64 // demand fetches surfaced to the reader as an error
}

// Faults returns the substrate-wide degradation counters.
func (m *Manager) Faults() FaultCounters { return m.faults }

// Degraded reports whether the manager is running in degraded mode: at
// least one disk of the array has permanently failed, so prefetching for
// stripes mapped to it is suspended while demand reads keep flowing.
func (m *Manager) Degraded() bool { return m.arr.DeadCount() > 0 }

// handleFetchError is the degradation policy for a fetch that completed
// with an error. Demand-critical blocks (a demand read is waiting, or the
// fetch was demand-priority) retry with capped exponential backoff until
// they succeed or their disk dies; pure prefetches retry MaxFetchRetries
// times and are then demoted — dropped from the hinted sequence so the
// prefetcher does not wedge on one bad block. Dead-disk errors never retry:
// the block resolves to an error immediately.
func (m *Manager) handleFetchError(f *fetch, err error) {
	lb, dk := f.lb, f.Disk
	m.faults.FetchErrors++
	b := m.cache.Get(lb)
	if b == nil || b.State() != cache.InTransit {
		panic(fmt.Sprintf("tip: fetch error for block %d not in transit", lb))
	}
	if err == disk.ErrDead {
		if b.Demanded() {
			m.faults.FailedDemand++
		}
		if m.obs.Enabled() {
			m.emit("fetch-dead", "lb=%d disk=%d demanded=%v", lb, dk, b.Demanded())
		}
		m.fail(lb)
		return
	}
	f.attempts++
	if !b.Demanded() && f.attempts > m.cfg.MaxFetchRetries {
		m.demote(lb)
		return
	}
	m.faults.FetchRetries++
	if m.obs.Enabled() {
		m.emit("fetch-retry", "lb=%d disk=%d attempt=%d backoff=%d", lb, dk, f.attempts, m.cfg.retryBackoff(f.attempts))
	}
	m.clk.After(m.cfg.retryBackoff(f.attempts), func() { m.refetch(lb, dk) })
}

// fail resolves the in-transit block lb to an error: its fetch record goes
// and is released (the array is done with its request, which is not
// submitted again), and its waiters are woken with valid=false.
func (m *Manager) fail(lb int64) {
	f := m.fetches[lb]
	delete(m.fetches, lb)
	m.releaseFetch(f)
	m.cache.Fail(lb)
}

// demote gives up on prefetching lb: the buffer is released, the block is
// excluded from future pumping, and the eventual demand read fetches it
// itself (clearing the demotion on success).
func (m *Manager) demote(lb int64) {
	m.demoted[lb] = true
	m.faults.DemotedBlocks++
	if m.obs.Enabled() {
		m.emit("demote", "lb=%d after %d retries", lb, m.cfg.MaxFetchRetries)
	}
	m.fail(lb)
}

// refetch re-submits the disk request for lb after a backoff. The block is
// still in transit: nothing resolves a block that has no request outstanding.
// A block a demand read started waiting on during the backoff is upgraded to
// demand priority.
func (m *Manager) refetch(lb int64, dk int) {
	pri := disk.Prefetch
	if m.cache.Get(lb).Demanded() {
		pri = disk.Demand
	}
	if pri == disk.Prefetch && m.arr.Dead(dk) {
		m.demote(lb) // a prefetch retry onto a dead disk: demote rather than wedge
		return
	}
	_, phys := m.arr.Map(lb)
	m.submit(lb, dk, phys, pri, m.fetches[lb].RideAlong)
}
