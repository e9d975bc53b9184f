package disk

import (
	"testing"

	"spechint/internal/sim"
)

// scriptInjector is a deterministic Injector for tests: failAt says which
// request ordinals (0-based, per Outcome call) fail, spikeAt which are
// spiked, and dead marks disks dead from deadAt.
type scriptInjector struct {
	n        int
	failAt   map[int]bool
	spikeAt  map[int]bool
	factor   int
	deadDisk int
	deadAt   sim.Time
	deadHits int
}

func newScript() *scriptInjector {
	return &scriptInjector{failAt: map[int]bool{}, spikeAt: map[int]bool{}, factor: 4, deadDisk: -1}
}

func (s *scriptInjector) DiskDead(disk int, now sim.Time) bool {
	return disk == s.deadDisk && s.deadAt > 0 && now >= s.deadAt
}

func (s *scriptInjector) Outcome(disk int, phys int64, now sim.Time) (int, bool) {
	i := s.n
	s.n++
	sp := 1
	if s.spikeAt[i] {
		sp = s.factor
	}
	return sp, s.failAt[i]
}

func (s *scriptInjector) NoteDeadHit() { s.deadHits++ }

func TestTransientErrorDelivered(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	inj := newScript()
	inj.failAt[0] = true
	a.SetInjector(inj)
	var got []error
	a.Submit(&Request{Disk: 0, PhysBlock: 5, Pri: Demand, Done: func(err error) { got = append(got, err) }})
	a.Submit(&Request{Disk: 0, PhysBlock: 6, Pri: Demand, Done: func(err error) { got = append(got, err) }})
	clk.Drain()
	if len(got) != 2 || got[0] != ErrIO || got[1] != nil {
		t.Fatalf("completion errors = %v, want [ErrIO nil]", got)
	}
	st := a.Stats()
	if st.FaultedReqs != 1 {
		t.Fatalf("FaultedReqs = %d, want 1", st.FaultedReqs)
	}
}

func TestFailedReadResetsTrackBuffer(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	inj := newScript()
	inj.failAt[0] = true
	a.SetInjector(inj)
	var done []sim.Time
	rec := func(error) { done = append(done, clk.Now()) }
	// First request fails; the sequential follow-up must pay full
	// positioning again (no track-buffer window from a failed read).
	a.Submit(&Request{Disk: 0, PhysBlock: 5, Pri: Demand, Done: rec})
	a.Submit(&Request{Disk: 0, PhysBlock: 6, Pri: Demand, Done: rec})
	clk.Drain()
	if service := done[1] - done[0]; service != 1100 {
		t.Fatalf("post-failure sequential service = %d, want full 1100", service)
	}
	if a.Stats().TrackBufHits != 0 {
		t.Fatalf("TrackBufHits = %d after a failed stream", a.Stats().TrackBufHits)
	}
}

func TestLatencySpikeMultipliesService(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	inj := newScript()
	inj.spikeAt[0] = true
	a.SetInjector(inj)
	var done sim.Time
	a.Submit(&Request{Disk: 0, PhysBlock: 5, Pri: Demand, Done: func(error) { done = clk.Now() }})
	clk.Drain()
	if done != 4400 { // (1000+100) * 4
		t.Fatalf("spiked service completed at %d, want 4400", done)
	}
	if a.Stats().SpikedReqs != 1 {
		t.Fatalf("SpikedReqs = %d, want 1", a.Stats().SpikedReqs)
	}
}

func TestDiskDeathDrainsQueues(t *testing.T) {
	clk := sim.NewQueue()
	a := mustNew(t, clk, testConfig(1))
	inj := newScript()
	inj.deadDisk = 0
	inj.deadAt = 500
	a.SetInjector(inj)

	var errs []error
	rec := func(err error) { errs = append(errs, err) }
	// Submitted while alive: enters service, finishes normally even though
	// the disk dies mid-transfer.
	a.Submit(&Request{Disk: 0, PhysBlock: 5, Pri: Demand, Done: rec})
	// Queued behind it; the disk is dead by the time service would start.
	a.Submit(&Request{Disk: 0, PhysBlock: 6, Pri: Demand, Done: rec})
	a.Submit(&Request{Disk: 0, PhysBlock: 7, Pri: Prefetch, Done: rec})
	clk.Drain()
	if len(errs) != 3 {
		t.Fatalf("%d completions, want 3", len(errs))
	}
	if errs[0] != nil {
		t.Fatalf("in-service request got %v, want nil", errs[0])
	}
	if errs[1] != ErrDead || errs[2] != ErrDead {
		t.Fatalf("queued requests got %v/%v, want ErrDead", errs[1], errs[2])
	}

	// Submissions after death: failed with ErrDead, never queued.
	var late error
	a.Submit(&Request{Disk: 0, PhysBlock: 9, Pri: Demand, Done: func(err error) { late = err }})
	clk.Drain()
	if late != ErrDead {
		t.Fatalf("late request got %v, want ErrDead", late)
	}
	st := a.Stats()
	if st.DeadDisks != 1 || st.DeadReqs != 3 {
		t.Fatalf("DeadDisks=%d DeadReqs=%d, want 1 and 3", st.DeadDisks, st.DeadReqs)
	}
	if !a.Dead(0) {
		t.Fatal("Dead(0) = false after death")
	}
	if inj.deadHits != 3 {
		t.Fatalf("injector NoteDeadHit called %d times, want 3", inj.deadHits)
	}
}
