package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"spechint/internal/cow"
)

// Mode distinguishes the original thread from the speculating thread.
type Mode int

const (
	// Normal execution: exceptions are program errors, stores are direct.
	Normal Mode = iota
	// Speculative execution: exceptions become signals that park the thread
	// until the next restart, and memory is mediated by copy-on-write.
	Speculative
)

// ThreadState is a thread's scheduling state.
type ThreadState int

const (
	Ready ThreadState = iota
	Blocked
	Halted
	Faulted
)

func (s ThreadState) String() string {
	switch s {
	case Ready:
		return "ready"
	case Blocked:
		return "blocked"
	case Halted:
		return "halted"
	case Faulted:
		return "faulted"
	}
	return "unknown"
}

// StopReason tells the scheduler why Run returned.
type StopReason int

const (
	StopBudget StopReason = iota
	StopBlocked
	StopHalted
	StopFault
	StopError
	StopYield
)

func (r StopReason) String() string {
	switch r {
	case StopBudget:
		return "budget"
	case StopBlocked:
		return "blocked"
	case StopHalted:
		return "halted"
	case StopFault:
		return "fault"
	case StopError:
		return "error"
	case StopYield:
		return "yield"
	}
	return "unknown"
}

// SysControl is the OS's verdict on a syscall.
type SysControl int

const (
	// SysDone: the syscall completed; execution continues.
	SysDone SysControl = iota
	// SysBlock: the thread blocks; the OS will set the result register and
	// wake it later.
	SysBlock
	// SysHalt: the thread exits.
	SysHalt
	// SysFault: the syscall is forbidden or failed fatally; in speculative
	// mode the thread faults, in normal mode it is a program error.
	SysFault
	// SysYield: the syscall completed but a higher-priority thread became
	// runnable; stop this slice so the scheduler can preempt.
	SysYield
)

// OS services syscalls. Implementations read arguments from t.Regs[R1..R4]
// and write results to t.Regs[R1].
type OS interface {
	Syscall(m *Machine, t *Thread, code int64) SysControl
}

// CostModel assigns cycle costs to instruction classes. The speculative
// check costs are what produce the paper's dilation factor.
type CostModel struct {
	Default    int64 // ALU, moves, branches, plain loads/stores
	Mul        int64
	Div        int64
	Syscall    int64 // kernel crossing
	LoadCheck  int64 // extra cycles for a COW-checked load
	StoreCheck int64 // extra cycles for a COW-checked store
	CopyPer8B  int64 // cycles per 8 bytes when a region is first copied
	Handler    int64 // extra cycles for the dynamic control-transfer handler
	JumpTable  int64 // extra cycles for a recognized (static) jump-table jump
}

// defaultCosts approximates the testbed processor.
func defaultCosts() CostModel {
	return CostModel{
		Default:    1,
		Mul:        3,
		Div:        20,
		Syscall:    300,
		LoadCheck:  20,
		StoreCheck: 26,
		CopyPer8B:  1,
		Handler:    20,
		JumpTable:  2,
	}
}

// Config sizes the machine.
type Config struct {
	MemSize   int64 // data + heap + original stack
	StackSize int64 // original stack region (top of MemSize); the
	// speculating thread gets an equal-size private stack above MemSize
	SpecHeapSize int64 // private sbrk arena for the speculating thread
	PageBytes    int64 // page size for footprint accounting (8 KB on Alpha)
	ReclaimGap   int64 // cycles of inactivity after which a page re-touch
	// counts as a reclaim (models the LRU physical-map sweeper)
	COWRegion int // copy-on-write region size (power of two)
	Cost      CostModel
}

// DefaultConfig returns a machine sized for the benchmark programs.
func DefaultConfig() Config {
	return Config{
		MemSize:      4 << 20,
		StackSize:    256 << 10,
		SpecHeapSize: 256 << 10,
		PageBytes:    8192,
		ReclaimGap:   4 << 20,
		COWRegion:    1024,
		Cost:         defaultCosts(),
	}
}

// PageStats models the paper's Table 6 paging numbers.
type PageStats struct {
	Touched  int64 // distinct pages ever accessed
	Faults   int64 // first touches
	Reclaims int64 // re-touches after a long idle gap (page was unmapped)
}

// Thread is one hardware context.
type Thread struct {
	Name  string
	Mode  Mode
	Regs  [NumRegs]int64
	PC    int64
	State ThreadState
	Cow   *cow.Map // non-nil iff Mode == Speculative

	// PendingCycles is a deferred charge the OS adds during a syscall (data
	// copy costs, hint-log checks); the run loop consumes it before the
	// next instruction.
	PendingCycles int64

	// Statistics.
	Instrs   int64
	Cycles   int64
	Loads    int64
	Stores   int64
	Signals  int64 // speculative faults
	ExitCode int64
	Err      error // fatal error (Normal mode only)

	// Summarised counts the instructions (a subset of Instrs) that Run
	// retired in bulk instead of dispatching: whole iterations of counted
	// spin loops and of word-sum and byte-scan loops (decode.go).
	Summarised int64
}

// Wake unblocks a Blocked thread, storing result into R1 (the syscall
// return register).
func (t *Thread) Wake(result int64) {
	if t.State != Blocked {
		panic(fmt.Sprintf("vm: Wake of %s thread in state %v", t.Name, t.State))
	}
	t.Regs[R1] = result
	t.State = Ready
}

// Machine executes a (possibly transformed) program.
type Machine struct {
	text []Instr
	dec  []dInstr // text pre-decoded for dispatch (see decode.go)
	mem  []byte
	prog *Program
	cfg  Config
	os   OS

	cowCopyCost int64 // cycles charged per freshly-copied COW region
	pageShift   uint  // log2(cfg.PageBytes): touchPage runs on every access

	brk     int64 // original thread's heap break
	specBrk int64 // speculating thread's private break

	pageLast []int64 // each page's last touch (cycle); -1 = never
	lastPage int64   // the page touchPage saw last; -1 = none yet
	lastAt   int64   // lastPage's last touch, not yet in pageLast
	pages    PageStats
	clock    int64 // total cycles executed on this machine (all threads)

	touchEvery bool // tests only: touched never settles an access, touchPage does every one

	sliceUsed int64 // cycles consumed in the current Run slice (for OS clock sync)
}

// NewMachine loads prog into a fresh machine.
func NewMachine(prog *Program, os OS, cfg Config) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if cfg.MemSize <= 0 || cfg.StackSize <= 0 || cfg.StackSize*2 >= cfg.MemSize {
		return nil, fmt.Errorf("vm: bad memory geometry mem=%d stack=%d", cfg.MemSize, cfg.StackSize)
	}
	if cfg.PageBytes <= 0 || cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		return nil, fmt.Errorf("vm: page size %d is not a power of two", cfg.PageBytes)
	}
	if cfg.ReclaimGap < 0 {
		return nil, fmt.Errorf("vm: negative reclaim gap %d", cfg.ReclaimGap)
	}
	if prog.DataSize > cfg.MemSize-cfg.StackSize {
		return nil, fmt.Errorf("vm: data %d does not fit below the stack", prog.DataSize)
	}
	total := cfg.MemSize + cfg.StackSize + cfg.SpecHeapSize
	m := &Machine{
		text:     prog.Text,
		dec:      decodeProgram(prog.Text, cfg.Cost),
		mem:      takeMem(total),
		prog:     prog,
		cfg:      cfg,
		os:       os,
		brk:      (prog.DataSize + 7) &^ 7,
		pageLast: make([]int64, (total+cfg.PageBytes-1)/cfg.PageBytes),
		lastPage: -1,

		cowCopyCost: cfg.Cost.CopyPer8B * int64(cfg.COWRegion) / 8,
		pageShift:   uint(bits.TrailingZeros64(uint64(cfg.PageBytes))),
	}
	m.specBrk = cfg.MemSize + cfg.StackSize
	copy(m.mem, prog.Data)
	for i := range m.pageLast {
		m.pageLast[i] = -1
	}
	return m, nil
}

// freeMem holds the memory of released machines for the next NewMachine of
// the same size: a sweep runs thousands of machines of one geometry, and a
// fresh 4.5 MB buffer per run is garbage the collector must pace around. It
// is a plain list, not a sync.Pool, so that a runtime.GC between two runs
// does not empty it; maxFreeMem bounds what idle buffers can hold.
var freeMem struct {
	sync.Mutex
	bufs [][]byte
}

// maxFreeMem bounds the list: two four-process groups finishing at once, 36
// MB at the default geometry.
const maxFreeMem = 8

// takeMem returns n bytes of zeroed machine memory, recycled if a released
// buffer of that size is free. The whole buffer is cleared, not only the
// pages touchPage saw: WriteMem, WriteFrom, CopyStackForSpec and the load of
// prog.Data write memory without touching a page.
func takeMem(n int64) []byte {
	freeMem.Lock()
	for i := len(freeMem.bufs) - 1; i >= 0; i-- {
		if b := freeMem.bufs[i]; int64(len(b)) == n {
			freeMem.bufs = append(freeMem.bufs[:i], freeMem.bufs[i+1:]...)
			freeMem.Unlock()
			clear(b)
			return b
		}
	}
	freeMem.Unlock()
	return make([]byte, n)
}

// Release hands the machine's memory to the next NewMachine. The machine is
// dead afterwards: Run panics, and every other access fails or panics.
// Releasing twice is a no-op.
func (m *Machine) Release() {
	if m.mem == nil {
		return
	}
	freeMem.Lock()
	if len(freeMem.bufs) < maxFreeMem {
		freeMem.bufs = append(freeMem.bufs, m.mem)
	}
	freeMem.Unlock()
	m.mem = nil
}

// Pages returns the paging statistics accumulated so far.
func (m *Machine) Pages() PageStats { return m.pages }

// SliceUsed returns the cycles consumed so far in the current Run slice.
// OS syscall handlers use it to synchronize the virtual clock to the precise
// moment of the syscall.
func (m *Machine) SliceUsed() int64 { return m.sliceUsed }

// NewThread creates a thread of the given mode at the program entry (Normal)
// or parked (Speculative; the restart protocol will position it).
func (m *Machine) NewThread(name string, mode Mode) *Thread {
	t := &Thread{Name: name, Mode: mode, State: Ready}
	if mode == Normal {
		t.PC = m.prog.Entry
		t.Regs[SP] = m.cfg.MemSize
	} else {
		t.Cow = cow.New(m.cfg.COWRegion)
		t.Regs[SP] = m.cfg.MemSize + m.cfg.StackSize
		t.State = Faulted // parked until first restart
	}
	return t
}

// specStackBounds returns the speculating thread's private stack region.
func (m *Machine) specStackBounds() (lo, hi int64) {
	return m.cfg.MemSize, m.cfg.MemSize + m.cfg.StackSize
}

// CopyStackForSpec copies the original thread's live stack [sp, MemSize)
// into the speculative stack area and returns the speculative SP. This is
// the restart protocol's stack copy (paper §3.2.2).
func (m *Machine) CopyStackForSpec(origSP int64) int64 {
	lo, _ := m.specStackBounds()
	if origSP < m.cfg.MemSize-m.cfg.StackSize || origSP > m.cfg.MemSize {
		panic(fmt.Sprintf("vm: original SP %d outside stack", origSP))
	}
	n := m.cfg.MemSize - origSP
	copy(m.mem[lo+m.cfg.StackSize-n:lo+m.cfg.StackSize], m.mem[origSP:m.cfg.MemSize])
	return lo + m.cfg.StackSize - n
}

// Sbrk implements the sbrk syscall for either thread. The speculating
// thread allocates from a private arena (the paper added dedicated
// allocation routines for it); increments are rounded up to 8 bytes.
func (m *Machine) Sbrk(t *Thread, incr int64) int64 {
	incr = (incr + 7) &^ 7
	if t.Mode == Speculative {
		old := m.specBrk
		if incr < 0 || incr > int64(len(m.mem))-m.specBrk {
			return -1
		}
		m.specBrk += incr
		return old
	}
	old := m.brk
	if incr < 0 || incr > m.cfg.MemSize-m.cfg.StackSize-m.brk {
		return -1
	}
	m.brk += incr
	return old
}

// ResetSpecBrk rewinds the speculative arena (called at restart).
func (m *Machine) ResetSpecBrk() { m.specBrk = m.cfg.MemSize + m.cfg.StackSize }

// touchPage records a data access at cycle now of the machine clock for
// footprint/fault/reclaim accounting. Every access is stamped with its own
// cycle, so how the scheduler slices a run cannot move a reclaim. pageLast
// holds each page's last touch except for the page touched last, lastPage,
// whose time is lastAt until another page is touched.
func (m *Machine) touchPage(addr, now int64) {
	p := addr >> m.pageShift
	if m.lastPage >= 0 {
		m.pageLast[m.lastPage] = m.lastAt
	}
	last := m.pageLast[p]
	switch {
	case last < 0:
		m.pages.Touched++
		m.pages.Faults++
	case now-last > m.cfg.ReclaimGap:
		m.pages.Reclaims++
	}
	m.lastPage, m.lastAt = p, now
}

// touched does touchPage's work for its common case, an access to lastPage
// within ReclaimGap of the previous one (most accesses of a digest or copy
// loop), and reports whether the access was that case. Run calls it first;
// each of the two is small enough to inline, where one function doing both
// is not.
func (m *Machine) touched(addr, now int64) bool {
	if addr>>m.pageShift != m.lastPage || now-m.lastAt > m.cfg.ReclaimGap || m.touchEvery {
		return false
	}
	m.lastAt = now
	return true
}

// touchRun does for the k accesses at a, a+step, …, made iter cycles apart
// from cycle now, what k touchPage calls would: it touches the first access
// on each page and settles the page's later ones at once, each a reclaim if
// iter exceeds ReclaimGap, the last of them the page's time.
func (m *Machine) touchRun(a, step, k, now, iter int64) {
	for end := a + step*(k-1); a <= end; {
		m.touchPage(a, now)
		next := (a>>m.pageShift + 1) << m.pageShift // the first access on a later page
		n := min((next-a+step-1)/step, (end-a)/step+1)
		if iter > m.cfg.ReclaimGap {
			m.pages.Reclaims += n - 1
		}
		m.lastAt = now + (n-1)*iter
		a, now = a+n*step, now+n*iter
	}
}

// validAddr reports whether [addr, addr+n) lies in memory. It never forms
// addr+n: a wild guest address near MaxInt64 would wrap it past the test.
func (m *Machine) validAddr(addr, n int64) bool {
	return addr >= 0 && n >= 0 && addr <= int64(len(m.mem))-n
}

// inSpecPrivate reports whether [addr, addr+n) lies in the speculating
// thread's private area (its stack and sbrk arena). Unchecked stores in
// shadow code are only legal there — SpecHint leaves stack-pointer-relative
// stores unchecked because the speculative stack is private.
func (m *Machine) inSpecPrivate(addr, n int64) bool {
	return addr >= m.cfg.MemSize && addr <= int64(len(m.mem))-n
}

// The speculating thread's view of memory is one rule, byte by byte: a byte
// of its private area (addr >= MemSize) is memory itself, as its unchecked
// stack loads and stores see it, and any other byte is its copy-on-write
// view. Checked loads and stores, the checked scan kernels, ReadCStr, WriteMem
// and WriteFrom all follow it, so a private access never makes a copy and
// never charges for one. The helpers below take a valid address.

// specLoad reads size (1 or 8) bytes at addr through the speculating thread's
// view.
func (m *Machine) specLoad(t *Thread, addr, size int64) int64 {
	switch priv := m.cfg.MemSize; {
	case addr+size <= priv:
		if size == 1 {
			return int64(t.Cow.LoadByte(m.mem, addr))
		}
		return t.Cow.LoadWord(m.mem, addr)
	case addr >= priv:
		if size == 1 {
			return int64(m.mem[addr])
		}
		return int64(binary.LittleEndian.Uint64(m.mem[addr:]))
	}
	// A word across the private area's edge: each byte from its own side.
	var v uint64
	for i := int64(0); i < size; i++ {
		v |= uint64(m.specLoad(t, addr+i, 1)) << (8 * i)
	}
	return int64(v)
}

// specStore writes the low size (1 or 8) bytes of v at addr through the
// speculating thread's view and returns how many fresh region copies that
// made.
func (m *Machine) specStore(t *Thread, addr, size, v int64) int {
	switch priv := m.cfg.MemSize; {
	case addr+size <= priv:
		if size == 8 {
			return t.Cow.StoreWord(m.mem, addr, v)
		}
		if t.Cow.StoreByte(m.mem, addr, byte(v)) {
			return 1
		}
		return 0
	case addr >= priv:
		if size == 8 {
			binary.LittleEndian.PutUint64(m.mem[addr:], uint64(v))
		} else {
			m.mem[addr] = byte(v)
		}
		return 0
	}
	fresh := 0
	for i := int64(0); i < size; i++ {
		fresh += m.specStore(t, addr+i, 1, int64(uint64(v)>>(8*i)))
	}
	return fresh
}

// specReadable returns the speculating thread's view of memory from addr to
// the end of the stretch one source serves: the rest of memory in the private
// area, else the rest of addr's copy-on-write region (cow.Readable), cut at
// the private area's edge. It never copies.
func (m *Machine) specReadable(t *Thread, addr int64) []byte {
	priv := m.cfg.MemSize
	if addr >= priv {
		return m.mem[addr:]
	}
	b := t.Cow.Readable(m.mem, addr)
	return b[:min(int64(len(b)), priv-addr)]
}

// WriteMem stores p at addr through the thread's view of memory.
func (m *Machine) WriteMem(t *Thread, addr int64, p []byte) error {
	n := int64(len(p))
	if !m.validAddr(addr, n) {
		return fmt.Errorf("vm: write [%d,+%d) out of range", addr, n)
	}
	if t.Mode == Speculative {
		shared := min(max(m.cfg.MemSize-addr, 0), n)
		t.Cow.StoreBytes(m.mem, addr, p[:shared])
		addr, p = addr+shared, p[shared:]
	}
	copy(m.mem[addr:], p)
	return nil
}

// Source is where the bytes of a read come from: ReadAt overwrites all of dst
// with the source's bytes at off. A *fsim.File is one.
type Source interface {
	ReadAt(dst []byte, off int64)
}

// WriteFrom stores n bytes of src, starting at src offset off, at addr through
// the thread's view of memory. The bytes are rendered straight into place —
// into memory itself for the original thread and for the speculating thread's
// private area, region by region into the speculating thread's copies
// otherwise — so no staging buffer sits between a file and a thread.
func (m *Machine) WriteFrom(t *Thread, addr, n int64, src Source, off int64) error {
	if !m.validAddr(addr, n) {
		return fmt.Errorf("vm: write [%d,+%d) out of range", addr, n)
	}
	if t.Mode == Speculative {
		for n > 0 && addr < m.cfg.MemSize {
			c := t.Cow.Writable(m.mem, addr)
			k := min(int64(len(c)), n, m.cfg.MemSize-addr)
			src.ReadAt(c[:k], off)
			addr, off, n = addr+k, off+k, n-k
		}
		if n == 0 {
			return nil
		}
	}
	src.ReadAt(m.mem[addr:addr+n], off)
	return nil
}

// ReadCStr reads a NUL-terminated string from the thread's view of memory
// into buf, overwriting it, and returns the bytes read without the NUL: a
// caller that passes the same scratch buffer every time reads paths without
// allocating.
func (m *Machine) ReadCStr(t *Thread, addr int64, buf []byte) ([]byte, error) {
	const maxLen = 4096
	out := buf[:0]
	for len(out) < maxLen {
		a := addr + int64(len(out))
		if !m.validAddr(a, 1) {
			return out, fmt.Errorf("vm: string at %d runs out of memory", addr)
		}
		b := m.mem[a:]
		if t.Mode == Speculative {
			b = m.specReadable(t, a)
		}
		b = b[:min(len(b), maxLen-len(out))]
		if i := bytes.IndexByte(b, 0); i >= 0 {
			return append(out, b[:i]...), nil
		}
		out = append(out, b...)
	}
	return out, fmt.Errorf("vm: unterminated string at %d", addr)
}

// fault marks a speculative exception (a signal in the paper's Table 6);
// for normal threads it is a fatal program error.
func (m *Machine) fault(t *Thread, format string, args ...any) StopReason {
	if t.Mode == Speculative {
		t.Signals++
		t.State = Faulted
		return StopFault
	}
	t.Err = fmt.Errorf(format, args...)
	t.State = Halted
	return StopError
}

// redirect maps an indirect-control-transfer target into the shadow text,
// implementing SpecHint's dynamic handling routine. ok=false means the
// target cannot be mapped and speculation must be prevented from leaving
// the shadow code.
func (m *Machine) redirect(target int64) (int64, bool) {
	p := m.prog
	if p.ShadowBase == 0 {
		return target, false // untransformed program has no shadow
	}
	if target >= 0 && target < p.OrigTextLen {
		return target + p.ShadowBase, true
	}
	if target >= p.ShadowBase && target < int64(len(p.Text)) {
		return target, true
	}
	return 0, false
}

// set writes v to rd, keeping R0 hard-wired to zero. It replaces the old
// setReg closure in the step loop: a method has no capture environment, so
// Run stays allocation-free (see BenchmarkVMStep).
func (t *Thread) set(rd uint8, v int64) {
	if rd != R0 {
		t.Regs[rd] = v
	}
}

// finish settles a run slice: it charges the consumed cycles to the thread
// and the machine clock and clears the slice counter. Kept as a method (not
// a closure over used) so used never escapes to the heap.
func (m *Machine) finish(t *Thread, used int64, r StopReason) (int64, StopReason) {
	t.Cycles += used
	m.clock += used
	m.sliceUsed = 0
	return used, r
}

// scan retires at once the whole loop-back iterations of the scan loop headed
// at pc (markScanLoops) that the dispatcher would run in room cycles, and
// returns what they cost; 0 means none, and the header is then a plain load.
// It retires k = min(budget bound, loop bound, last valid address, first byte
// equal to K) iterations. The budget bound is dSPIN's: an iteration runs whole
// iff its last instruction starts under budget. The exiting iteration, a
// partial one, the matching byte and a load that would fault are left to the
// dispatcher. checked reads through the speculating thread's view, a region
// at a time. now is the machine clock at the header, when the first load runs.
func (m *Machine) scan(t *Thread, pc, room, now int64, checked bool) int64 {
	ld, test := &m.dec[pc], &m.dec[pc+1]
	word := ld.flags&dfWord != 0
	at := pc + 2 // the word sum's addi; the byte scan's is bne's target
	if !word {
		at = test.imm
	}
	inc, back := &m.dec[at], &m.dec[at+1]
	upToLast := ld.cost + test.cost + inc.cost
	iter := upToLast + back.cost
	regs := &t.Regs
	p, e, step := regs[ld.rs1], regs[back.rs2], inc.imm // step is also the load's width
	a := p + ld.imm
	if room <= upToLast || e <= p || !m.validAddr(a, step) {
		return 0
	}
	k := (room-upToLast-1)/iter + 1
	if loops := (uint64(e) - uint64(p) - 1) / uint64(step); loops < uint64(k) {
		k = int64(loops) // P stays below E throughout, so P+step·k cannot wrap
	}
	if k = min(k, (int64(len(m.mem))-step-a)/step+1); k == 0 {
		return 0
	}
	var last int64
	if word {
		var sum int64
		sum, last = m.sumWords(t, a, k, checked)
		regs[test.rd] += sum
	} else if k, last = m.scanBytes(t, a, k, regs[test.rs2], checked); k == 0 {
		return 0
	}
	regs[ld.rd] = last
	regs[ld.rs1] = p + step*k
	m.touchRun(a, step, k, now, iter)
	t.Loads += k
	t.Instrs += scanLen*k - 1 // this arrival is already counted
	t.Summarised += scanLen * k
	return k * iter
}

// sumWords returns the wrapped sum of the k words from a and the last of them.
func (m *Machine) sumWords(t *Thread, a, k int64, checked bool) (sum, last int64) {
	if !checked {
		return addWords(m.mem[a : a+8*k])
	}
	for k > 0 {
		b := m.specReadable(t, a)
		n := min(int64(len(b))/8, k)
		if n == 0 { // a word across two regions, or across the private edge
			last = m.specLoad(t, a, 8)
			sum += last
			a, k = a+8, k-1
			continue
		}
		s, l := addWords(b[:8*n])
		sum, last = sum+s, l
		a, k = a+8*n, k-n
	}
	return sum, last
}

// addWords returns the wrapped sum of b's little-endian words and the last of
// them; len(b) is a positive multiple of 8.
func addWords(b []byte) (sum, last int64) {
	for ; len(b) >= 8; b = b[8:] {
		last = int64(binary.LittleEndian.Uint64(b))
		sum += last
	}
	return sum, last
}

// scanBytes returns how many of the k bytes from a come before the first one
// equal to key (all k if none is), and the last of those.
func (m *Machine) scanBytes(t *Thread, a, k, key int64, checked bool) (n, last int64) {
	for n < k {
		b := m.mem[a+n : a+k]
		if checked {
			b = m.specReadable(t, a+n)
			b = b[:min(int64(len(b)), k-n)]
		}
		i := len(b)
		if key == int64(byte(key)) {
			if j := bytes.IndexByte(b, byte(key)); j >= 0 {
				i = j
			}
		}
		if i > 0 {
			last = int64(b[i-1])
		}
		n += int64(i)
		if i < len(b) {
			break
		}
	}
	return n, last
}

// Run executes t for at most budget cycles, returning the cycles actually
// consumed and why execution stopped. Run panics if t is not Ready.
//
// The inner loop dispatches over the pre-decoded instruction stream built at
// load time (see decode.go): the class switch is dense, so it compiles to a
// jump table, per-instruction costs and operand variants are already
// resolved, and the PC is kept in a register-friendly local that is synced
// back to the Thread at every exit and around syscalls (the OS may
// reposition a thread mid-slice during the restart protocol).
func (m *Machine) Run(t *Thread, budget int64) (int64, StopReason) {
	if t.State != Ready {
		panic(fmt.Sprintf("vm: Run of %s thread in state %v", t.Name, t.State))
	}
	if m.mem == nil {
		panic("vm: Run on a released machine")
	}
	var used int64

	if t.PendingCycles > 0 {
		used += t.PendingCycles
		t.PendingCycles = 0
		if used >= budget {
			return m.finish(t, used, StopBudget)
		}
	}

	dec := m.dec
	mem := m.mem
	regs := &t.Regs
	pc := t.PC

	for used < budget {
		if pc < 0 || pc >= int64(len(dec)) {
			t.PC = pc
			return m.finish(t, used, m.fault(t, "vm: PC %d outside text", pc))
		}
		ins := &dec[pc]
		c := ins.cost
		t.Instrs++
		nextPC := pc + 1

		switch ins.class {
		case dNOP:

		case dADD:
			if ins.rd != R0 {
				regs[ins.rd] = regs[ins.rs1] + regs[ins.rs2]
			}
		case dSUB:
			if ins.rd != R0 {
				regs[ins.rd] = regs[ins.rs1] - regs[ins.rs2]
			}
		case dMUL:
			if ins.rd != R0 {
				regs[ins.rd] = regs[ins.rs1] * regs[ins.rs2]
			}
		case dDIV, dMOD:
			d := regs[ins.rs2]
			if d == 0 {
				used += c
				t.PC = pc
				return m.finish(t, used, m.fault(t, "vm: division by zero at PC %d", pc))
			}
			if ins.class == dDIV {
				t.set(ins.rd, regs[ins.rs1]/d)
			} else {
				t.set(ins.rd, regs[ins.rs1]%d)
			}
		case dAND:
			if ins.rd != R0 {
				regs[ins.rd] = regs[ins.rs1] & regs[ins.rs2]
			}
		case dOR:
			if ins.rd != R0 {
				regs[ins.rd] = regs[ins.rs1] | regs[ins.rs2]
			}
		case dXOR:
			if ins.rd != R0 {
				regs[ins.rd] = regs[ins.rs1] ^ regs[ins.rs2]
			}
		case dSHL:
			if ins.rd != R0 {
				regs[ins.rd] = regs[ins.rs1] << uint64(regs[ins.rs2]&63)
			}
		case dSHR:
			if ins.rd != R0 {
				regs[ins.rd] = int64(uint64(regs[ins.rs1]) >> uint64(regs[ins.rs2]&63))
			}
		case dSLT:
			v := int64(0)
			if regs[ins.rs1] < regs[ins.rs2] {
				v = 1
			}
			t.set(ins.rd, v)

		case dADDI:
			if ins.rd != R0 {
				regs[ins.rd] = regs[ins.rs1] + ins.imm
			}
		case dANDI:
			if ins.rd != R0 {
				regs[ins.rd] = regs[ins.rs1] & ins.imm
			}
		case dORI:
			if ins.rd != R0 {
				regs[ins.rd] = regs[ins.rs1] | ins.imm
			}
		case dXORI:
			if ins.rd != R0 {
				regs[ins.rd] = regs[ins.rs1] ^ ins.imm
			}
		case dSHLI:
			if ins.rd != R0 {
				regs[ins.rd] = regs[ins.rs1] << uint64(ins.imm&63)
			}
		case dSHRI:
			if ins.rd != R0 {
				regs[ins.rd] = int64(uint64(regs[ins.rs1]) >> uint64(ins.imm&63))
			}
		case dSLTI:
			v := int64(0)
			if regs[ins.rs1] < ins.imm {
				v = 1
			}
			t.set(ins.rd, v)
		case dMOVI:
			if ins.rd != R0 {
				regs[ins.rd] = ins.imm
			}

		case dSCAN:
			// Header of a scan loop (markScanLoops): retire the whole
			// loop-back iterations that fit at once and stay on the header;
			// when none does, this is the plain load below it.
			if n := m.scan(t, pc, budget-used, m.clock+used, false); n > 0 {
				used += n
				continue
			}
			fallthrough
		case dLD:
			t.Loads++
			addr := regs[ins.rs1] + ins.imm
			size := int64(1)
			if ins.flags&dfWord != 0 {
				size = 8
			}
			if !m.validAddr(addr, size) {
				used += c
				t.PC = pc
				return m.finish(t, used, m.fault(t, "vm: load at %d out of range (PC %d)", addr, pc))
			}
			if now := m.clock + used; !m.touched(addr, now) {
				m.touchPage(addr, now)
			}
			if ins.flags&dfWord == 0 {
				t.set(ins.rd, int64(mem[addr]))
			} else {
				t.set(ins.rd, int64(binary.LittleEndian.Uint64(mem[addr:])))
			}

		case dSCANS:
			if n := m.scan(t, pc, budget-used, m.clock+used, true); n > 0 {
				used += n
				continue
			}
			fallthrough
		case dLDS:
			t.Loads++
			addr := regs[ins.rs1] + ins.imm
			size := int64(1)
			if ins.flags&dfWord != 0 {
				size = 8
			}
			if !m.validAddr(addr, size) {
				used += c
				t.PC = pc
				return m.finish(t, used, m.fault(t, "vm: spec load at %d out of range (PC %d)", addr, pc))
			}
			if now := m.clock + used; !m.touched(addr, now) {
				m.touchPage(addr, now)
			}
			t.set(ins.rd, m.specLoad(t, addr, size))

		case dST:
			t.Stores++
			addr := regs[ins.rs1] + ins.imm
			size := int64(1)
			if ins.flags&dfWord != 0 {
				size = 8
			}
			if !m.validAddr(addr, size) {
				used += c
				t.PC = pc
				return m.finish(t, used, m.fault(t, "vm: store at %d out of range (PC %d)", addr, pc))
			}
			if t.Mode == Speculative && !m.inSpecPrivate(addr, size) {
				// Shadow code must never store to shared memory unchecked;
				// reaching here means speculation computed a wild address
				// from stale data. Fault, as the SFI checks would.
				used += c
				t.PC = pc
				return m.finish(t, used, m.fault(t, "vm: unchecked spec store at %d (PC %d)", addr, pc))
			}
			if now := m.clock + used; !m.touched(addr, now) {
				m.touchPage(addr, now)
			}
			if ins.flags&dfWord == 0 {
				mem[addr] = byte(regs[ins.rs2])
			} else {
				binary.LittleEndian.PutUint64(mem[addr:], uint64(regs[ins.rs2]))
			}

		case dSTS:
			t.Stores++
			addr := regs[ins.rs1] + ins.imm
			size := int64(1)
			if ins.flags&dfWord != 0 {
				size = 8
			}
			if !m.validAddr(addr, size) {
				used += c
				t.PC = pc
				return m.finish(t, used, m.fault(t, "vm: spec store at %d out of range (PC %d)", addr, pc))
			}
			if now := m.clock + used; !m.touched(addr, now) {
				m.touchPage(addr, now)
			}
			c += int64(m.specStore(t, addr, size, regs[ins.rs2])) * m.cowCopyCost

		case dSPIN:
			// Header of a counted spin loop (markSpinLoops) with n iterations
			// to go. An instruction runs iff used < budget at its start, so
			// an iteration runs whole iff its last instruction starts under
			// budget: retire the k that do at once and stay on the header.
			// The exit, a partial iteration and a counter that would have to
			// wrap (n <= 0) are the plain BEQ's.
			if n := regs[ins.rs1]; n > 0 {
				upToLast := c + dec[pc+1].cost
				iter := upToLast + dec[pc+2].cost
				if room := budget - used - upToLast; room > 0 {
					k := (room-1)/iter + 1
					if k > n {
						k = n
					}
					regs[ins.rs1] = n - k
					t.Instrs += k*spinLen - 1 // this arrival is already counted
					t.Summarised += k * spinLen
					used += k * iter
					continue
				}
			}
			fallthrough
		case dBEQ:
			if regs[ins.rs1] == regs[ins.rs2] {
				nextPC = ins.imm
			}
		case dBNE:
			if regs[ins.rs1] != regs[ins.rs2] {
				nextPC = ins.imm
			}
		case dBLT:
			if regs[ins.rs1] < regs[ins.rs2] {
				nextPC = ins.imm
			}
		case dBGE:
			if regs[ins.rs1] >= regs[ins.rs2] {
				nextPC = ins.imm
			}
		case dJMP:
			if ins.flags&dfLink != 0 {
				regs[RA] = pc + 1
			}
			nextPC = ins.imm
		case dJR:
			if ins.flags&dfLink != 0 {
				regs[RA] = pc + 1
			}
			nextPC = regs[ins.rs1]

		case dJRH:
			target := regs[ins.rs1]
			mapped, ok := m.redirect(target)
			if !ok {
				// The handling routine prevents the speculating thread from
				// leaving the shadow code: halt this speculation.
				used += c
				t.PC = pc
				return m.finish(t, used, m.fault(t, "vm: unmappable indirect target %d (PC %d)", target, pc))
			}
			if ins.flags&dfLink != 0 {
				regs[RA] = pc + 1
			}
			nextPC = mapped

		case dJTR:
			target := regs[ins.rs1]
			mapped, ok := m.redirect(target)
			if !ok {
				used += c
				t.PC = pc
				return m.finish(t, used, m.fault(t, "vm: jump-table target %d unmappable (PC %d)", target, pc))
			}
			nextPC = mapped

		case dSYSCALL:
			t.PC = nextPC // resume after the syscall on wake
			used += c
			m.sliceUsed = used
			verdict := m.os.Syscall(m, t, ins.imm)
			if t.PendingCycles > 0 {
				used += t.PendingCycles
				t.PendingCycles = 0
			}
			switch verdict {
			case SysDone:
				if used >= budget {
					return m.finish(t, used, StopBudget)
				}
				pc = t.PC // the OS may have repositioned the thread
				continue
			case SysYield:
				return m.finish(t, used, StopYield)
			case SysBlock:
				t.State = Blocked
				return m.finish(t, used, StopBlocked)
			case SysHalt:
				t.State = Halted
				return m.finish(t, used, StopHalted)
			case SysFault:
				return m.finish(t, used, m.fault(t, "vm: forbidden syscall %s at PC %d", SyscallName(ins.imm), t.PC-1))
			}

		default:
			used += c
			t.PC = pc
			return m.finish(t, used, m.fault(t, "vm: illegal opcode %v at PC %d", m.text[pc].Op, pc))
		}

		// Stack-pointer discipline: SpecHint places dynamic checks on
		// SP-modifying instructions so the speculative stack stays private;
		// for normal threads this doubles as overflow detection. The
		// predicate (Rd == SP on a non-store) is pre-decoded into a flag.
		if ins.flags&dfCheckSP != 0 {
			sp := regs[SP]
			if t.Mode == Speculative {
				lo, hi := m.specStackBounds()
				if sp < lo || sp > hi {
					used += c
					t.PC = pc
					return m.finish(t, used, m.fault(t, "vm: spec SP %d out of bounds", sp))
				}
			} else if sp < m.cfg.MemSize-m.cfg.StackSize || sp > m.cfg.MemSize {
				used += c
				t.PC = pc
				return m.finish(t, used, m.fault(t, "vm: stack overflow, SP %d", sp))
			}
		}

		pc = nextPC
		used += c
	}
	t.PC = pc
	return m.finish(t, used, StopBudget)
}
