package core

import (
	"fmt"

	"spechint/internal/sim"
	"spechint/internal/vm"
)

// smpQuantum bounds a dual-processor scheduling window: the original thread
// runs a quantum, then the speculating thread gets the same wall window on
// its own processor. Speculative disk submissions are skewed by at most one
// quantum (~0.4 ms of testbed time).
const smpQuantum = 100_000

// stepOrig runs the original thread for at most budget cycles and advances
// the clock by the cycles it actually used. In dual-processor mode the
// speculating thread then runs the same wall window on the second processor.
func (s *System) stepOrig(budget int64) error {
	parallelSpec := s.cfg.DualProcessor && s.specRunnable()
	if parallelSpec && budget > smpQuantum {
		budget = smpQuantum
	}
	start := s.clk.Now()
	s.sliceStart = start
	used, stop := s.mach.Run(s.orig, budget)
	s.clk.AdvanceTo(start + sim.Time(used))
	s.stats.OrigBusy += used
	if stop == vm.StopError {
		return fmt.Errorf("core: %s: %s thread error: %w", s.name, s.orig.Name, s.orig.Err)
	}
	if parallelSpec && used > 0 {
		s.runSpecWindow(used)
	}
	return nil
}

// stepSpec gives the speculating thread at most budget cycles — restart-
// protocol work first, then shadow-code execution — advancing the clock by
// the cycles consumed.
func (s *System) stepSpec(budget int64) error {
	start := s.clk.Now()
	if busy, _ := s.restartStep(budget, true); busy {
		return nil
	}
	s.sliceStart = start
	used, stop := s.mach.Run(s.spec, budget)
	s.clk.AdvanceTo(start + sim.Time(used))
	s.stats.SpecBusy += used
	switch stop {
	case vm.StopError:
		return fmt.Errorf("core: %s: %s thread error: %w", s.name, s.spec.Name, s.spec.Err)
	case vm.StopFault:
		// Only the speculating thread faults (normal-mode exceptions
		// surface as StopError); it stays parked until the next restart.
		if s.obs.Enabled() {
			s.trace(evSignal, "speculation faulted at PC %d", s.spec.PC)
		}
	}
	return nil
}

// runSpecWindow gives the speculating thread a wall window of `window`
// cycles on the second processor, concurrent with original-thread execution
// the clock has already accounted. Restart work (restartStep) and execution
// both charge against the window.
func (s *System) runSpecWindow(window int64) {
	for window > 0 && s.specRunnable() {
		if busy, work := s.restartStep(window, false); busy {
			if work == 0 {
				return // throttled
			}
			window -= work
			continue
		}
		if s.spec.State != vm.Ready {
			return
		}
		s.inWindow = true
		used, _ := s.mach.Run(s.spec, window)
		s.inWindow = false
		s.stats.SpecBusy += used
		window -= used
		if used == 0 {
			return
		}
	}
}

// specRunnable reports whether the speculating thread can use the CPU now.
func (s *System) specRunnable() bool {
	if s.cfg.Mode != ModeSpeculating {
		return false
	}
	if s.clk.Now() < s.disabledUntil {
		return false // §5 cancel throttle in effect
	}
	if s.restartPending || s.restartRemaining > 0 {
		return true // restart work pending
	}
	return s.spec.State == vm.Ready
}

// restartStep performs (a slice of) the restart protocol for either CPU:
// cancel outstanding hints, clear the copy-on-write map, copy the original
// thread's stack, load its saved registers, and jump to the shadow
// instruction after the read it blocked on (paper §3.2.2). It begins a
// pending restart now if none is under way, then charges at most budget
// cycles of its work to the speculating thread. It reports whether a restart
// was pending or under way — the step took the speculating thread's turn —
// and the cycles charged, 0 if a throttle disabled speculation instead.
//
// With wall set the work is wall time on the one CPU: the clock advances
// past it before the restart finishes, so the thread resumes when its work
// ended. Without it the work is part of a window on the second processor
// that the clock has already passed (runSpecWindow).
func (s *System) restartStep(budget int64, wall bool) (busy bool, work int64) {
	start := s.clk.Now()
	if s.restartRemaining == 0 {
		if !s.restartPending {
			return false, 0
		}
		if !s.beginRestart(start) {
			return true, 0
		}
	}
	work = min(s.restartRemaining, budget)
	if wall {
		s.clk.AdvanceTo(start + sim.Time(work))
	}
	s.stats.SpecBusy += work
	s.restartRemaining -= work
	if s.restartRemaining == 0 {
		s.finishRestart()
	}
	return true, work
}

// beginRestart cleans up the current speculation (CANCEL_ALL, hint-log
// truncation, COW and arena reset) and applies the throttles. It returns
// false if a throttle disabled speculation instead.
func (s *System) beginRestart(start sim.Time) bool {
	s.restartPending = false
	s.stats.Restarts++
	s.tipc.CancelAll()
	s.hintLog = s.hintLog[:s.logNext]
	s.spec.Cow.Reset()
	s.mach.ResetSpecBrk()

	// §5 ad-hoc throttle: after CancelThrottle cancellations, disable
	// speculation for a while instead of restarting. The count resets to -1
	// so the restart that re-enables speculation after the window gets a
	// free pass — otherwise a threshold of 1 would disable speculation
	// permanently.
	s.cancelsRecent++
	if s.cfg.CancelThrottle > 0 && s.cancelsRecent >= s.cfg.CancelThrottle {
		s.cancelsRecent = -1
		s.throttle(start, sim.Time(s.cfg.CancelThrottleCycles))
		return false
	}

	// §5 generic limiter: gate restarts on TIP's recent hint accuracy,
	// with exponential backoff while it stays poor.
	if s.cfg.AdaptiveThrottle {
		if s.tipc.Accuracy() < adaptiveThreshold {
			if s.backoffCycles == 0 {
				s.backoffCycles = adaptiveBackoff
			} else if s.backoffCycles < 1<<32 {
				s.backoffCycles *= 2
			}
			s.throttle(start, sim.Time(s.backoffCycles))
			return false
		}
		s.backoffCycles = 0 // accuracy recovered: reset the backoff
	}

	liveStack := s.cfg.Machine.MemSize - s.savedRegs[vm.SP]
	s.restartRemaining = restartBaseCycles + liveStack/8*copyPer8B
	if s.restartRemaining <= 0 {
		s.restartRemaining = 1
	}
	return true
}

// throttle parks speculation until the window passes, re-armed with the
// freshest saved state.
func (s *System) throttle(start, window sim.Time) {
	s.disabledUntil = start + window
	s.spec.State = vm.Faulted
	s.restartPending = true
	if s.obs.Enabled() {
		s.trace(evThrottle, "speculation disabled for %d cycles", window)
	}
}

// finishRestart installs the saved original-thread state into the
// speculating thread and resumes it in shadow code.
func (s *System) finishRestart() {
	specSP := s.mach.CopyStackForSpec(s.savedRegs[vm.SP])
	s.spec.Regs = s.savedRegs
	s.spec.Regs[vm.SP] = specSP
	s.spec.Regs[vm.R1] = s.savedResult // the read's return value
	s.spec.PC = s.savedPC + s.prog.ShadowBase
	s.spec.PendingCycles = 0
	// The descriptor table is part of the original thread's state:
	// speculation starts from a private copy so its opens/closes/seeks
	// stay invisible to normal execution. Speculation resumes *after*
	// the read the original thread blocked on, so if that read has not
	// yet advanced the shared table's offset, advance the copy.
	s.specFDs = s.origFDs.Clone()
	if _, off, errno := s.specFDs.File(s.savedFD); errno == 0 && off == s.savedOff {
		s.specFDs.Advance(s.savedFD, s.savedResult)
	}
	s.spec.State = vm.Ready
	if s.obs.Enabled() {
		s.trace(evRestart, "resume at shadow PC %d, result %d", s.spec.PC, s.savedResult)
	}
}

// finalize closes out accounting at process exit and assembles the run
// statistics as a detached copy: holding the result keeps no System, machine
// or file system alive. Elapsed is this process's own completion time. Tip
// counters are this process's hint stream; Cache and Disk are substrate-wide
// (identical on a private substrate).
func (s *System) finalize() *RunStats {
	st := new(RunStats)
	*st = s.stats
	st.Elapsed = s.clk.Now()
	st.ExitCode = s.orig.ExitCode
	st.OrigInstrs = s.orig.Instrs
	// Close the stall-attribution accounting. Compute is what the original
	// thread executed minus the overhead speculation charged to its path;
	// SchedWait is the residual: exactly zero in a solo run without
	// speculation, bounded by speculative-slice instruction granularity with
	// it (see StallBuckets), and the CPU queueing delay under
	// multiprogramming.
	b := &st.Buckets
	b.Compute = st.OrigBusy - b.SpecOverhead
	b.SchedWait = int64(st.Elapsed) - st.OrigBusy - b.HintedStall - b.UnhintedStall - b.FaultStall
	if s.spec != nil {
		st.SpecInstrs = s.spec.Instrs
		st.SpecSignals = s.spec.Signals
	}
	st.Tip = s.tipc.Stats()
	st.Cache = s.tip.Cache().Stats()
	st.Disk = s.arr.Stats()
	st.TipFaults = s.tip.Faults()
	st.Degraded = s.tip.Degraded()
	st.Pages = s.mach.Pages()
	st.Output = s.out.String()
	st.MedianReadGap, st.MedianHintGap = median(s.readGaps), median(s.hintGaps)
	s.readGaps, s.hintGaps = nil, nil

	st.FootprintBytes = st.Pages.Touched*s.cfg.Machine.PageBytes + s.prog.TextBytes()
	if s.spec != nil {
		st.FootprintBytes += int64(s.spec.Cow.PeakRegions() * s.spec.Cow.RegionSize())
	}
	return st
}
