package core

import (
	"fmt"

	"spechint/internal/fsim"
	"spechint/internal/sim"
	"spechint/internal/vm"
)

// Syscall implements vm.OS for both threads. sliceStart is recorded by the
// scheduler before each Run slice so handlers can synchronize the virtual
// clock to the precise cycle of the call (see run.go).
func (s *System) Syscall(m *vm.Machine, t *vm.Thread, code int64) vm.SysControl {
	// Advance the clock to the exact moment of the syscall so that disk and
	// cache interactions happen at the right virtual time. Events due in the
	// interim (prefetch completions, wakeups) fire first. In dual-processor
	// mode the speculating thread executes inside a wall window the clock
	// has already passed; its syscalls happen "now" and leave the clock
	// alone (skew is bounded by the scheduling quantum).
	if target := s.sliceStart + sim.Time(m.SliceUsed()); target > s.clk.Now() && !s.inWindow {
		s.clk.AdvanceTo(target)
	}

	if t.Mode == vm.Speculative {
		v := s.specSyscall(m, t, code)
		if v == vm.SysDone && s.preemptNow() {
			// A completion event woke an original thread mid-slice; the
			// strict-priority policy preempts speculation immediately.
			return vm.SysYield
		}
		return v
	}
	return s.origSyscall(m, t, code)
}

// busyNow returns the thread's cumulative busy cycles including the current
// slice, for inter-call gap measurements.
func (s *System) busyNow(t *vm.Thread) int64 { return t.Cycles + s.mach.SliceUsed() }

// origSyscall services the original (normal) thread.
func (s *System) origSyscall(m *vm.Machine, t *vm.Thread, code int64) vm.SysControl {
	switch code {
	case vm.SysExit:
		t.ExitCode = t.Regs[vm.R1]
		return vm.SysHalt

	case vm.SysOpen:
		path, err := s.readStr(m, t)
		if err != nil {
			t.Err = err
			return vm.SysFault
		}
		t.Regs[vm.R1] = s.origFDs.Open(s.fs, path)
		return vm.SysDone

	case vm.SysClose:
		t.Regs[vm.R1] = int64(s.origFDs.Close(t.Regs[vm.R1]))
		return vm.SysDone

	case vm.SysSeek:
		t.Regs[vm.R1] = s.origFDs.SeekFD(t.Regs[vm.R1], t.Regs[vm.R2], t.Regs[vm.R3])
		return vm.SysDone

	case vm.SysFstat:
		return s.doFstat(m, t, s.origFDs)

	case vm.SysSbrk:
		t.Regs[vm.R1] = m.Sbrk(t, t.Regs[vm.R1])
		return vm.SysDone

	case vm.SysWrite:
		// Write-behind buffering hides write latency (paper §1): writes cost
		// only the user-to-kernel copy; no disk time on the critical path.
		n := t.Regs[vm.R3]
		if n < 0 {
			t.Regs[vm.R1] = int64(fsim.EINVAL)
			return vm.SysDone
		}
		s.stats.WriteCalls++
		s.stats.WriteBytes += n
		t.PendingCycles += n / 8 * copyPer8B
		t.Regs[vm.R1] = n
		return vm.SysDone

	case vm.SysPrint:
		str, err := s.readStr(m, t)
		if err != nil {
			t.Err = err
			return vm.SysFault
		}
		s.out.Write(str)
		t.PendingCycles += printCycles
		t.Regs[vm.R1] = 0
		return vm.SysDone

	case vm.SysPrintInt:
		fmt.Fprintf(&s.out, "%d", t.Regs[vm.R1])
		t.PendingCycles += printCycles
		t.Regs[vm.R1] = 0
		return vm.SysDone

	case vm.SysHintFD:
		if f, _, errno := s.origFDs.File(t.Regs[vm.R1]); errno == fsim.OK {
			s.tipc.HintSeg(f, t.Regs[vm.R2], t.Regs[vm.R3])
			t.Regs[vm.R1] = 0
		} else {
			t.Regs[vm.R1] = int64(errno)
		}
		return vm.SysDone

	case vm.SysHintFile:
		path, err := s.readStr(m, t)
		if err != nil {
			t.Err = err
			return vm.SysFault
		}
		if f, ok := s.fs.LookupBytes(path); ok {
			s.tipc.HintSeg(f, t.Regs[vm.R2], t.Regs[vm.R3])
			t.Regs[vm.R1] = 0
		} else {
			t.Regs[vm.R1] = int64(fsim.ENOENT)
		}
		return vm.SysDone

	case vm.SysCancelAll:
		s.tipc.CancelAll()
		t.Regs[vm.R1] = 0
		return vm.SysDone

	case vm.SysRead:
		return s.origRead(m, t)
	}
	t.Err = fmt.Errorf("core: unknown syscall %d", code)
	return vm.SysFault
}

// readStr reads the string argument in R1 into the System's scratch buffer;
// the bytes are good until the next call.
func (s *System) readStr(m *vm.Machine, t *vm.Thread) ([]byte, error) {
	var err error
	s.strBuf, err = m.ReadCStr(t, t.Regs[vm.R1], s.strBuf)
	return s.strBuf, err
}

// readArgs resolves the read(fd, buf, len) call in t's registers against
// fds: the open file, its offset, and n, the bytes the read returns (len
// clamped to what is left of the file). ok=false means the call has already
// failed and R1 holds its errno.
func readArgs(t *vm.Thread, fds *fsim.FDTable) (file *fsim.File, off, n int64, ok bool) {
	file, off, errno := fds.File(t.Regs[vm.R1])
	reqLen := t.Regs[vm.R3]
	if errno == fsim.OK && reqLen < 0 {
		errno = fsim.EINVAL
	}
	if errno != fsim.OK {
		t.Regs[vm.R1] = int64(errno)
		return nil, 0, 0, false
	}
	return file, off, max(0, min(file.Size()-off, reqLen)), true
}

// copyOut delivers n bytes of file from off into the thread's buffer and
// charges the copy to the thread. The machine renders the file's bytes
// straight into the thread's view of memory.
func (s *System) copyOut(t *vm.Thread, buf int64, file *fsim.File, off, n int64) error {
	err := s.mach.WriteFrom(t, buf, n, file, off)
	if err == nil {
		t.PendingCycles += n / 8 * copyPer8B
	}
	return err
}

// origRead is the heart of the runtime: the hint-log check, off-track
// detection and state save all happen here, before the read is issued
// (paper §3.2.2).
func (s *System) origRead(m *vm.Machine, t *vm.Thread) vm.SysControl {
	fd, buf, reqLen := t.Regs[vm.R1], t.Regs[vm.R2], t.Regs[vm.R3]
	file, off, n, ok := readArgs(t, s.origFDs)
	if !ok {
		return vm.SysDone
	}

	s.stats.ReadCalls++
	sitePC := t.PC - 1 // Run advanced past the syscall instruction
	if s.stats.ReadSites == nil {
		s.stats.ReadSites = make(map[int64]*ReadSiteStats)
	}
	site := s.stats.ReadSites[sitePC]
	if site == nil {
		site = &ReadSiteStats{}
		s.stats.ReadSites[sitePC] = site
	}
	site.Calls++
	if n > 0 {
		site.DataCalls++
	}
	now := s.busyNow(t)
	if s.sawOrigRead {
		s.readGaps = append(s.readGaps, now-s.lastOrigReadAt)
	}
	s.sawOrigRead = true
	s.lastOrigReadAt = now

	if s.cfg.Capture != nil {
		// Record the read exactly as issued (requested length, not the
		// short-read result) with the compute since the previous one as
		// think time; internal/trace normalizes opens and closes from the
		// path switches.
		s.cfg.Capture.Read(file.Name, off, reqLen, now-s.lastCaptureBusy)
		s.lastCaptureBusy = now
	}

	hinted := false
	if s.cfg.Mode == ModeSpeculating {
		t.PendingCycles += hintLogCheckCycles
		s.stats.Buckets.SpecOverhead += hintLogCheckCycles
		if s.logNext < len(s.hintLog) && s.hintLog[s.logNext] == (logEntry{file.Ino(), off, reqLen}) {
			// Speculation is, as far as we can tell, on track.
			s.logNext++
			hinted = n > 0
		} else {
			// Off track (no entry: speculation is behind; mismatch: it
			// strayed). Save state and raise the restart flag before the
			// read is issued, so the speculating thread can restart during
			// the coming stall.
			t.PendingCycles += regSaveCycles
			s.stats.Buckets.SpecOverhead += regSaveCycles
			s.savedRegs = t.Regs
			s.savedResult = n
			s.savedPC = t.PC // Run already advanced past the syscall
			s.savedFD = fd
			s.savedOff = off
			s.restartPending = true
			if s.obs.Enabled() {
				s.trace(evOffTrack, "at %s off=%d (log %d/%d)", file.Name, off, s.logNext, len(s.hintLog))
			}
		}
	} else if s.cfg.Mode == ModeManual || s.cfg.Mode == ModeStatic {
		hinted = n > 0 && s.tipc.Covered(file, off, reqLen)
	}
	if hinted {
		s.stats.HintedReads++
		site.Hinted++
	}
	if s.obs.Enabled() {
		s.trace(evRead, "%s off=%d len=%d hinted=%v", file.Name, off, reqLen, hinted)
	}

	immediate := s.tipc.Read(file, off, reqLen, hinted, s.readDone)
	if immediate {
		s.finishRead(t, file, fd, buf, off, n)
		t.Regs[vm.R1] = n
		return vm.SysDone
	}
	// The cycles this handler charged to the thread (hint-log check, register
	// save) are consumed by the current slice *before* the block takes effect,
	// so the stall begins that many cycles after the clock's present reading —
	// counting them in the window too would double-charge them (they are
	// already in OrigBusy).
	s.read = pendingRead{
		fd: fd, buf: buf, file: file, off: off, n: n, pc: t.PC,
		stallStart: s.clk.Now() + sim.Time(t.PendingCycles),
		hinted:     hinted, faultsAt: s.tip.Faults().FetchErrors,
	}
	s.pending = &s.read
	return vm.SysBlock
}

// completeRead runs when TIP reports every block of the pending read
// resolved: err is nil when all are valid, non-nil when one was
// unrecoverable (its disk died). On error the application gets EIO — a real
// errno return, exactly what a production kernel would deliver — and, in
// ModeSpeculating, the speculating thread is forced to restart with that
// same EIO as its read result, so an injected fault can never make shadow
// code diverge from what the original thread actually observed.
func (s *System) completeRead(err error) {
	p := s.pending
	if p == nil {
		// A completion with nothing pending is a runtime inconsistency; the
		// watchdog turns it into a diagnostic run failure instead of a panic.
		s.watchdog("completeRead with no pending read")
		return
	}
	s.pending = nil
	s.chargeStall(p, err)
	if err != nil {
		s.stats.ReadErrors++
		if s.obs.Enabled() {
			s.trace(evReadError, "%s off=%d: %v", p.file.Name, p.off, err)
		}
		if s.cfg.Mode == ModeSpeculating {
			// Containment (§3.2.2 applied to faults): whether or not the
			// read was predicted, speculation believed it would return data.
			// Re-arm the restart protocol so shadow code resumes just past
			// this read with the EIO the original thread is about to see.
			s.savedRegs = s.orig.Regs
			s.savedResult = int64(fsim.EIO)
			s.savedPC = p.pc
			s.savedFD = p.fd
			s.savedOff = p.off
			s.restartPending = true
			s.stats.FaultRestarts++
			if s.obs.Enabled() {
				s.trace(evOffTrack, "fault at %s off=%d: forcing restart with EIO", p.file.Name, p.off)
			}
		}
		// The file offset does not advance on a failed read.
		s.orig.Wake(int64(fsim.EIO))
		return
	}
	if s.obs.Enabled() {
		s.trace(evReadDone, "%s off=%d n=%d", p.file.Name, p.off, p.n)
	}
	s.finishRead(s.orig, p.file, p.fd, p.buf, p.off, p.n)
	s.orig.Wake(p.n)
}

// chargeStall attributes the just-finished blocking stall (block → wake,
// measured on the virtual clock) to exactly one bucket. Fault activity wins:
// a stall during which the substrate saw fetch errors — or that itself
// surfaced an error — was stretched by retry/backoff machinery, and lumping
// it with clean stalls would overstate prefetching's shortfall. The fault
// counter is substrate-wide, so under multiprogramming a neighbour's retry
// can tip a concurrent stall into the fault bucket; per-read attribution
// would need fault provenance plumbed through TIP and the disk array.
func (s *System) chargeStall(p *pendingRead, err error) {
	stall := int64(s.clk.Now() - p.stallStart)
	b := &s.stats.Buckets
	switch {
	case err != nil || s.tip.Faults().FetchErrors != p.faultsAt:
		b.FaultStall += stall
	case p.hinted:
		b.HintedStall += stall
	default:
		b.UnhintedStall += stall
	}
}

// finishRead copies the data into the user buffer and advances the offset.
func (s *System) finishRead(t *vm.Thread, file *fsim.File, fd, buf, off, n int64) {
	if n > 0 {
		// A bad buffer pointer from the program is a program bug: it surfaces
		// on the thread's next slice as a fatal error via Err.
		if err := s.copyOut(t, buf, file, off, n); err != nil {
			t.Err = err
		}
	}
	s.origFDs.Advance(fd, n)
}

// specSyscall services the speculating thread. The paper's rule: no real
// system calls except hints, fstat and sbrk. Opens, closes and seeks are
// emulated in user space against a private descriptor table; writes and
// output are suppressed; reads become hints.
func (s *System) specSyscall(m *vm.Machine, t *vm.Thread, code int64) vm.SysControl {
	switch code {
	case vm.SysExit:
		// Speculation ran off the end of the program: park until restart.
		return vm.SysHalt

	case vm.SysOpen:
		path, err := s.readStr(m, t)
		if err != nil {
			return vm.SysFault // garbage pointer from stale data
		}
		t.Regs[vm.R1] = s.specFDs.Open(s.fs, path)
		return vm.SysDone

	case vm.SysClose:
		t.Regs[vm.R1] = int64(s.specFDs.Close(t.Regs[vm.R1]))
		return vm.SysDone

	case vm.SysSeek:
		t.Regs[vm.R1] = s.specFDs.SeekFD(t.Regs[vm.R1], t.Regs[vm.R2], t.Regs[vm.R3])
		return vm.SysDone

	case vm.SysFstat:
		return s.doFstat(m, t, s.specFDs)

	case vm.SysSbrk:
		t.Regs[vm.R1] = m.Sbrk(t, t.Regs[vm.R1])
		return vm.SysDone

	case vm.SysWrite:
		// Suppressed: pretend success so speculation follows the likely path.
		t.Regs[vm.R1] = t.Regs[vm.R3]
		return vm.SysDone

	case vm.SysPrint, vm.SysPrintInt:
		// Normally removed by the transform; suppressed if present.
		t.Regs[vm.R1] = 0
		return vm.SysDone

	case vm.SysHintFD, vm.SysHintFile, vm.SysCancelAll:
		// Hint calls inside shadow code (a manually-hinted program run
		// through SpecHint) are suppressed: the speculation machinery owns
		// the hint stream.
		t.Regs[vm.R1] = 0
		return vm.SysDone

	case vm.SysRead:
		return s.specRead(m, t)
	}
	return vm.SysFault
}

// specRead is how hints are generated: a read encountered during speculation
// issues the corresponding TIP hint and logs it, returns the value the real
// read would return (computable from file metadata, which fstat makes
// legitimately available), and delivers data only if it is already cached —
// otherwise speculation proceeds with whatever stale bytes the buffer holds,
// which is exactly how data-dependent speculation strays.
func (s *System) specRead(m *vm.Machine, t *vm.Thread) vm.SysControl {
	fd, buf, reqLen := t.Regs[vm.R1], t.Regs[vm.R2], t.Regs[vm.R3]
	file, off, n, ok := readArgs(t, s.specFDs)
	if !ok {
		return vm.SysDone
	}

	s.hintLog = append(s.hintLog, logEntry{file.Ino(), off, reqLen})
	if depth := len(s.hintLog) - s.logNext; depth > s.stats.HintLogPeak {
		s.stats.HintLogPeak = depth
	}

	if n > 0 {
		s.tipc.HintSeg(file, off, reqLen)
		if s.obs.Enabled() {
			s.trace(evHint, "%s off=%d len=%d", file.Name, off, reqLen)
		}
		now := s.busyNow(t)
		if s.sawSpecHint {
			s.hintGaps = append(s.hintGaps, now-s.lastSpecHintAt)
		}
		s.sawSpecHint = true
		s.lastSpecHintAt = now

		if s.tipc.CachedRange(file, off, n) && s.copyOut(t, buf, file, off, n) != nil {
			return vm.SysFault
		}
	}
	s.specFDs.Advance(fd, n)
	t.Regs[vm.R1] = n
	return vm.SysDone
}

// doFstat writes {size, ino, blockSize} to the stat buffer at R2.
func (s *System) doFstat(m *vm.Machine, t *vm.Thread, fds *fsim.FDTable) vm.SysControl {
	f, _, errno := fds.File(t.Regs[vm.R1])
	if errno != fsim.OK {
		t.Regs[vm.R1] = int64(errno)
		return vm.SysDone
	}
	statBuf := make([]byte, 24)
	putWord(statBuf[0:], f.Size())
	putWord(statBuf[8:], f.Ino())
	putWord(statBuf[16:], int64(s.fs.BlockSize()))
	if err := m.WriteMem(t, t.Regs[vm.R2], statBuf); err != nil {
		if t.Mode == vm.Speculative {
			return vm.SysFault
		}
		t.Err = err
		return vm.SysFault
	}
	t.Regs[vm.R1] = 0
	return vm.SysDone
}

func putWord(b []byte, v int64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(v) >> (8 * i))
	}
}
