package core

import (
	"errors"
	"fmt"
	"strings"

	"spechint/internal/obs"
	"spechint/internal/sim"
	"spechint/internal/vm"
)

// This file is the only place in the tree that turns the virtual clock: one
// driver loop (Drive) and one strict-priority scheduler (RunGroup). A solo
// run, a multiprogramming group and the cluster's client population are the
// same loop over different Work.

// maxSlice is a lone process's quantum, and the budget offered when no event
// is pending: large enough never to slice, small enough never to overflow.
const maxSlice = int64(1) << 40

// ErrDeadline marks a run aborted by its MaxCycles budget; detect it with
// errors.Is to distinguish a runaway simulation from a real failure.
var ErrDeadline = errors.New("core: virtual-cycle deadline exceeded")

// Work is what Drive schedules between events.
type Work interface {
	// Done reports that the run is complete.
	Done() bool
	// Step gives the CPU to whatever may use it now, for at most budget
	// cycles, advances the clock by the cycles used, and reports whether
	// anything ran. A pure-event population never runs.
	Step(budget int64) (ran bool, err error)
	// Stuck describes the unfinished work once the event queue has drained
	// with nothing runnable.
	Stuck() error
}

// Drive runs w to completion on clk. Every iteration samples the gauges,
// checks the deadline, and then either dispatches the events due now, or
// offers w the CPU up to — never across — the next pending event, or, with
// nothing runnable, jumps to that event. The budget rule is what lets Step
// advance the clock itself: no event can fall inside a slice. The deadline
// bounds a slice the same way, so a run that never does I/O still meets it.
func Drive(clk *sim.Queue, tr *obs.Trace, maxCycles int64, w Work) error {
	for !w.Done() {
		now := clk.Now()
		tr.Tick(now)
		if maxCycles > 0 && int64(now) > maxCycles {
			return fmt.Errorf("%w: MaxCycles %d", ErrDeadline, maxCycles)
		}
		budget := maxSlice
		if at, ok := clk.PeekTime(); ok {
			if at <= now {
				clk.RunTick() // drains every event due at this instant
				continue
			}
			budget = int64(at - now)
		}
		if left := maxCycles + 1 - int64(now); maxCycles > 0 && left < budget {
			budget = left
		}
		ran, err := w.Step(budget)
		if err != nil {
			return err
		}
		if !ran && !clk.RunTick() {
			return w.Stuck()
		}
	}
	return nil
}

// group is the strict-priority scheduler (paper §3.2) over the processes
// sharing one substrate and one CPU: round-robin among Ready original
// threads, a quantum each; a speculating thread runs only when no original
// thread anywhere can, and yields mid-slice the moment one wakes.
type group struct {
	procs   []*System
	quantum int64
	live    int // processes not yet exited
	rrOrig  int // round-robin pointers
	rrSpec  int
}

// RunGroup runs procs — Systems built on one substrate — to completion,
// time-slicing the CPU by quantum, and returns each process's statistics in
// order. Stats are taken the moment a process exits, so Elapsed is its own
// completion time; its hint stream is closed then too, handing its cache
// partition to the survivors. maxCycles bounds the whole run (0 = no bound);
// a member's own Proc.MaxCycles applies only to its solo Run.
func RunGroup(procs []*System, quantum, maxCycles int64) ([]*RunStats, error) {
	if len(procs) == 0 {
		return nil, errors.New("core: empty process group")
	}
	g := &group{procs: procs, quantum: quantum, live: len(procs)}
	for _, p := range procs {
		if p.clk != procs[0].clk {
			return nil, fmt.Errorf("core: %s is not on the group's substrate", p.name)
		}
		p.group = g
	}
	if err := Drive(procs[0].clk, procs[0].obs, maxCycles, g); err != nil {
		return nil, err
	}
	stats := make([]*RunStats, len(procs))
	for i, p := range procs {
		stats[i] = p.final
	}
	return stats, nil
}

// Run executes the application to completion and returns the run statistics:
// a group of one whose quantum never slices.
func (s *System) Run() (*RunStats, error) {
	stats, err := RunGroup([]*System{s}, maxSlice, s.cfg.MaxCycles)
	if err != nil {
		return nil, err
	}
	return stats[0], nil
}

func (g *group) Done() bool { return g.live == 0 }

func (g *group) Step(budget int64) (bool, error) {
	// Failures recorded inside completion callbacks, where no error could be
	// returned, surface here.
	for _, p := range g.procs {
		if p.watchdogErr != nil {
			return false, p.watchdogErr
		}
		if p.orig.Err != nil {
			return false, fmt.Errorf("core: %s: original thread failed: %w", p.name, p.orig.Err)
		}
	}
	if budget > g.quantum {
		budget = g.quantum
	}
	if p := g.next(&g.rrOrig, (*System).origReady); p != nil {
		err := p.stepOrig(budget)
		if p.exited() {
			g.retire(p)
		}
		return true, err
	}
	if p := g.next(&g.rrSpec, (*System).specTurn); p != nil {
		return true, p.stepSpec(budget)
	}
	return false, nil
}

// next picks, round-robin from *rr, the first process ok accepts and moves
// *rr past it.
func (g *group) next(rr *int, ok func(*System) bool) *System {
	n := len(g.procs)
	for k := 0; k < n; k++ {
		i := (*rr + k) % n
		if ok(g.procs[i]) {
			*rr = (i + 1) % n
			return g.procs[i]
		}
	}
	return nil
}

// anyOrigReady is the preemption test a speculating thread applies after
// every system call: some original thread in the group can use the CPU.
func (g *group) anyOrigReady() bool {
	for _, p := range g.procs {
		if p.origReady() {
			return true
		}
	}
	return false
}

// retire takes p's statistics at its exit and closes its hint stream. The
// last process out first closes the substrate's end-of-run accounting, so its
// snapshot — the only one on a private substrate — includes it.
func (g *group) retire(p *System) {
	if g.live--; g.live == 0 {
		p.tip.FinishRun()
	}
	p.final = p.finalize()
	p.tipc.Close()
}

func (g *group) Stuck() error {
	var b strings.Builder
	b.WriteString("core: deadlock — event queue drained with no thread runnable")
	for _, p := range g.procs {
		if !p.exited() {
			fmt.Fprintf(&b, "\n%v", p.diagnose("original thread blocked"))
		}
	}
	return errors.New(b.String())
}

func (s *System) exited() bool    { return s.orig.State == vm.Halted }
func (s *System) origReady() bool { return s.orig.State == vm.Ready }

// specTurn reports whether the speculating thread may take an idle CPU: the
// process is alive and speculation is runnable.
func (s *System) specTurn() bool { return !s.exited() && s.specRunnable() }
