package vm

// Counted-loop summarisation (markSpinLoops in decode.go, case dSPIN in Run)
// claims to be invisible: a machine that retires spin iterations in closed
// form and one that dispatches every beq/addi/jmp agree on everything a
// caller of Run can see, at every budget. This file holds the two side by
// side — one program loaded twice, the second machine's marks cleared — under
// a seeded script (TestSummarisationIsInvisible), under fuzzed programs
// (FuzzCountedLoop), and checks the arithmetic at sizes no stepping
// reference can reach (TestSpinClosedFormAtScale).

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forgetMarks turns m into the reference interpreter: every spin header goes
// back to the plain BEQ it decorates, every scan header (scan_test.go) to the
// plain load.
func forgetMarks(m *Machine) {
	for i := range m.dec {
		switch m.dec[i].class {
		case dSPIN:
			m.dec[i].class = dBEQ
		case dSCAN:
			m.dec[i].class = dLD
		case dSCANS:
			m.dec[i].class = dLDS
		}
	}
}

// twins is one program on two machines with one thread each: index 0
// retires loops in bulk, index 1 has forgotten how.
type twins struct {
	m  [2]*Machine
	th [2]*Thread
}

func newTwins(tb testing.TB, p *Program, cfg Config, mode Mode, newOS func() OS) *twins {
	tb.Helper()
	w := &twins{}
	for i := range w.m {
		m, err := NewMachine(p, newOS(), cfg)
		if err != nil {
			tb.Fatal(err)
		}
		w.m[i] = m
		w.th[i] = m.NewThread("t", mode)
		if mode == Speculative {
			w.th[i].State = Ready
			w.th[i].PC = p.ShadowBase
		}
	}
	forgetMarks(w.m[1])
	return w
}

// each applies f to both sides.
func (w *twins) each(f func(m *Machine, t *Thread)) {
	for i := range w.m {
		f(w.m[i], w.th[i])
	}
}

// observed is everything one Run call lets its caller see.
type observed struct {
	used    int64
	stop    StopReason
	pc      int64
	regs    [NumRegs]int64
	instrs  int64
	cycles  int64
	loads   int64
	stores  int64
	signals int64
	pending int64
	exit    int64
	state   ThreadState
	failed  bool
	pages   PageStats
	slice   int64
	clock   int64
}

func observe(m *Machine, t *Thread, used int64, stop StopReason) observed {
	return observed{
		used: used, stop: stop, pc: t.PC, regs: t.Regs,
		instrs: t.Instrs, cycles: t.Cycles, loads: t.Loads, stores: t.Stores,
		signals: t.Signals, pending: t.PendingCycles, exit: t.ExitCode,
		state: t.State, failed: t.Err != nil,
		pages: m.Pages(), slice: m.SliceUsed(), clock: m.clock,
	}
}

// run gives both sides the same budget; diff is empty when they agree.
func (w *twins) run(budget int64) (stop StopReason, diff string) {
	var got [2]observed
	for i := range w.m {
		used, r := w.m[i].Run(w.th[i], budget)
		got[i] = observe(w.m[i], w.th[i], used, r)
	}
	if got[0] != got[1] {
		diff = fmt.Sprintf("budget %d\nsummarising %+v\nreference   %+v", budget, got[0], got[1])
	}
	if w.th[1].Summarised != 0 {
		diff = fmt.Sprintf("reference summarised %d instructions", w.th[1].Summarised)
	}
	return got[0].stop, diff
}

// wallCosts is deliberately not DefaultCosts: every class has its own prime
// cost, so a charge taken from the wrong decoded entry shows.
func wallCosts() CostModel {
	return CostModel{Default: 3, Mul: 5, Div: 7, Syscall: 11, LoadCheck: 13,
		StoreCheck: 17, CopyPer8B: 2, Handler: 19, JumpTable: 23}
}

// spinSite is one loop of the wall's program.
type spinSite struct {
	head    int64 // header PC in the original text
	n       int64 // instructions in the loop: entry points are head .. head+n-1
	reg     uint8 // counter register
	marked  bool  // must be recognised as a counted spin loop
	endless bool  // may never exit on its own, whatever the counter
}

const (
	wallRefill = 99 // the syscall every loop exits to
	wallBuf    = 13 // register holding the address the loading loop reads
)

// wallText lays out, from PC base: the refill syscall, then every loop shape
// the recogniser must accept or refuse. Targets are absolute, so the same
// call at base = len(text) yields the shadow copy.
func wallText(base int64) ([]Instr, []spinSite) {
	text := []Instr{
		{Op: SYSCALL, Imm: wallRefill},
		{Op: JMP, Imm: base},
	}
	var sites []spinSite
	add := func(s spinSite, loop ...Instr) {
		s.head = int64(len(text))
		s.n = int64(len(loop))
		sites = append(sites, s)
		text = append(text, loop...)
	}
	here := func() int64 { return base + int64(len(text)) }
	loop3 := func(x uint8, exit int64, step int64, back Op) []Instr {
		return []Instr{
			{Op: BEQ, Rs1: x, Rs2: R0, Imm: exit},
			{Op: ADDI, Rd: x, Rs1: x, Imm: step},
			{Op: back, Imm: here()},
		}
	}
	// The canonical shape, twice: the second copy gets uneven costs poked
	// into its decoded entries (pokeCosts).
	add(spinSite{reg: 6, marked: true}, loop3(6, base, -1, JMP)...)
	add(spinSite{reg: 14, marked: true}, loop3(14, base, -1, JMP)...)
	// Exit target equal to the header: at zero it spins on the BEQ alone.
	add(spinSite{reg: 7, marked: true, endless: true}, loop3(7, here(), -1, JMP)...)
	// Counters the recogniser must refuse.
	add(spinSite{reg: R0}, loop3(R0, base, -1, JMP)...)
	add(spinSite{reg: SP}, loop3(SP, base, -1, JMP)...)
	// Near misses: a linking back edge, a step of -2, a longer body, a body
	// that touches memory.
	add(spinSite{reg: 9}, loop3(9, base, -1, CALL)...)
	add(spinSite{reg: 10, endless: true}, loop3(10, base, -2, JMP)...)
	h := here()
	add(spinSite{reg: 8},
		Instr{Op: BEQ, Rs1: 8, Rs2: R0, Imm: base},
		Instr{Op: ADDI, Rd: 8, Rs1: 8, Imm: -1},
		Instr{Op: NOP},
		Instr{Op: JMP, Imm: h})
	h = here()
	add(spinSite{reg: 11},
		Instr{Op: BEQ, Rs1: 11, Rs2: R0, Imm: base},
		Instr{Op: LDW, Rd: 12, Rs1: wallBuf},
		Instr{Op: ADDI, Rd: 11, Rs1: 11, Imm: -1},
		Instr{Op: JMP, Imm: h})
	return text, sites
}

// pokeCosts gives the second canonical loop three different instruction
// costs, which no CostModel can (BEQ, ADDI and JMP all cost Default): the
// budget rule turns on the last instruction's cost alone.
func pokeCosts(m *Machine, head int64) {
	m.dec[head].cost, m.dec[head+1].cost, m.dec[head+2].cost = 2, 5, 4
}

// wallOS answers the refill syscall from a fixed rota, identically on both
// machines: continue, yield, block, or reposition the thread onto the first
// canonical loop with five iterations to go. Any run therefore stops within
// four refills, whatever its budget. It also digests SliceUsed at every
// call — the value the real OS syncs its clock from.
type wallOS struct {
	calls  int
	slices int64
	spinAt int64 // header PC to reposition onto
}

func (o *wallOS) Syscall(m *Machine, t *Thread, code int64) SysControl {
	o.calls++
	o.slices = o.slices*1000003 + m.SliceUsed()
	switch o.calls % 4 {
	case 0:
		t.PendingCycles += int64(o.calls % 7)
	case 1:
		return SysYield
	case 2:
		return SysBlock
	case 3:
		t.PC = o.spinAt
		t.Regs[6] = 5
	}
	return SysDone
}

func TestSummarisationIsInvisible(t *testing.T) {
	for _, mode := range []Mode{Normal, Speculative} {
		t.Run(fmt.Sprint("mode", int(mode)), func(t *testing.T) {
			steps := 8000
			if testing.Short() {
				steps = 2000
			}
			spinWall(t, mode, 1999, steps)
		})
	}
}

func spinWall(t *testing.T, mode Mode, seed int64, steps int) {
	orig, sites := wallText(0)
	shadow, _ := wallText(int64(len(orig)))
	p := &Program{
		Text:        append(orig, shadow...),
		DataSize:    4096,
		OrigTextLen: int64(len(orig)),
		ShadowBase:  int64(len(orig)),
	}
	base := int64(0)
	if mode == Speculative {
		base = p.ShadowBase
	}
	cfg := testCfg()
	cfg.Cost = wallCosts()
	oses := []*wallOS{}
	w := newTwins(t, p, cfg, mode, func() OS {
		o := &wallOS{spinAt: base + sites[0].head}
		oses = append(oses, o)
		return o
	})
	w.each(func(m *Machine, _ *Thread) {
		pokeCosts(m, sites[1].head)
		pokeCosts(m, p.ShadowBase+sites[1].head)
	})
	for _, s := range sites {
		for _, b := range []int64{0, p.ShadowBase} {
			if got := w.m[0].dec[b+s.head].class == dSPIN; got != s.marked {
				t.Fatalf("loop at %d (counter r%d): recognised = %v, want %v", b+s.head, s.reg, got, s.marked)
			}
		}
	}

	stackTop := cfg.MemSize
	if mode == Speculative {
		stackTop += cfg.StackSize
	}
	iter := 3 * cfg.Cost.Default
	small := []int64{1, 2, 3, iter - 1, iter, iter + 1, iter + 2, 64, 4096, 100_000}
	counters := []int64{0, 1, 2, 1 << 40, -1, -5, math.MinInt64, math.MinInt64 + 3}
	rng := rand.New(rand.NewSource(seed))
	seen := map[StopReason]int{}

	// siteAt finds the loop the thread stands in, if any.
	siteAt := func(pc int64) *spinSite {
		for i := range sites {
			if s := &sites[i]; pc >= base+s.head && pc < base+s.head+s.n {
				return s
			}
		}
		return nil
	}
	for step := 0; step < steps; step++ {
		// Threads that stopped for good are revived at the refill.
		w.each(func(_ *Machine, th *Thread) {
			switch th.State {
			case Blocked:
				th.Wake(int64(step))
			case Halted, Faulted:
				th.State, th.Err, th.PC = Ready, nil, base
			}
		})
		// Enter a loop: any shape, any counter, at the header or mid-body.
		if siteAt(w.th[0].PC) == nil || rng.Intn(4) == 0 {
			s := sites[rng.Intn(len(sites))]
			c := counters[rng.Intn(len(counters))]
			if rng.Intn(2) == 0 {
				c = rng.Int63n(300)
			}
			if s.reg == SP {
				c = stackTop
			}
			pc := base + s.head + rng.Int63n(s.n)
			buf := 8 * rng.Int63n(cfg.MemSize/8)
			w.each(func(_ *Machine, th *Thread) {
				th.PC = pc
				th.set(s.reg, c)
				th.Regs[wallBuf] = buf
			})
		}
		if rng.Intn(8) == 0 {
			pend := small[rng.Intn(len(small))]
			w.each(func(_ *Machine, th *Thread) { th.PendingCycles += pend })
		}
		// A stepping reference can afford the 1<<40 budget only where the
		// run stops by itself: in a loop that exits, a short way from its
		// exit. (SP's loop faults within StackSize iterations.)
		budget := small[rng.Intn(len(small))]
		if rng.Intn(len(small)+1) == 0 {
			th := w.th[0]
			s := siteAt(th.PC)
			togo := uint64(0)
			if s != nil && s.reg != SP {
				togo = uint64(th.Regs[s.reg])
				if th.PC != base+s.head {
					togo-- // entered mid-body: the decrement may come before the test
				}
			}
			if (s == nil || !s.endless) && togo <= 4096 {
				budget = 1 << 40
			}
		}
		stop, diff := w.run(budget)
		if diff != "" {
			t.Fatalf("step %d: %s", step, diff)
		}
		if oses[0].slices != oses[1].slices || oses[0].calls != oses[1].calls {
			t.Fatalf("step %d: the OS saw SliceUsed digests %d/%d over %d/%d syscalls",
				step, oses[0].slices, oses[1].slices, oses[0].calls, oses[1].calls)
		}
		seen[stop]++
	}
	if w.th[0].Summarised == 0 || w.th[0].Summarised >= w.th[0].Instrs {
		t.Fatalf("summarised %d of %d instructions: the script exercised one path only", w.th[0].Summarised, w.th[0].Instrs)
	}
	fault := StopError
	if mode == Speculative {
		fault = StopFault
	}
	for _, r := range []StopReason{StopBudget, StopBlocked, StopYield, fault} {
		if seen[r] == 0 {
			t.Errorf("the script never stopped with %v (%v)", r, seen)
		}
	}
}

// TestSpinClosedFormAtScale checks the closed form against arithmetic where
// no reference can step: a think of 1<<40 iterations, budget-bound and
// unbounded.
func TestSpinClosedFormAtScale(t *testing.T) {
	const n = int64(1) << 40
	p := exitProg(
		Instr{Op: MOVI, Rd: 6, Imm: n},
		Instr{Op: BEQ, Rs1: 6, Rs2: R0, Imm: 4},
		Instr{Op: ADDI, Rd: 6, Rs1: 6, Imm: -1},
		Instr{Op: JMP, Imm: 1},
	)
	// At one cycle an instruction, a budget of B runs exactly B of them.
	m, th, stop := run(t, p, n)
	done := (n - 1) / 3 // whole iterations after the MOVI
	if stop != StopBudget || th.Cycles != n || th.Instrs != n || th.PC != 1+(n-1)%3 || th.Regs[6] != n-done {
		t.Fatalf("budget 1<<40: stop %v cycles %d instrs %d pc %d counter %d", stop, th.Cycles, th.Instrs, th.PC, th.Regs[6])
	}
	if th.Summarised != 3*done {
		t.Fatalf("summarised %d, want %d", th.Summarised, 3*done)
	}
	_, stop = m.Run(th, 1<<62)
	// MOVI, 3n of loop, the exiting BEQ, exitProg's MOVI and its SYSCALL.
	wantInstrs := 1 + 3*n + 3
	wantCycles := wantInstrs - 1 + defaultCosts().Syscall
	if stop != StopHalted || th.Instrs != wantInstrs || th.Cycles != wantCycles || th.Regs[6] != 0 {
		t.Fatalf("to the end: stop %v instrs %d (want %d) cycles %d (want %d) counter %d",
			stop, th.Instrs, wantInstrs, th.Cycles, wantCycles, th.Regs[6])
	}
}

// Byte encoding of FuzzCountedLoop's programs: three bytes an instruction —
// an opcode, three packed register picks, an immediate — over alphabets
// small enough that mutation keeps landing on loop-shaped text.
var (
	fuzzOps  = []Op{BEQ, ADDI, JMP, BNE, CALL, NOP, MOVI, ADD, BLT, SYSCALL}
	fuzzRegs = []uint8{R0, 6, 7, SP, RA}
)

func fuzzText(b []byte, base int64) []Instr {
	n := len(b) / 3
	if n > 64 {
		n = 64
	}
	text := make([]Instr, n)
	for i := range text {
		op, r, imm := fuzzOps[int(b[3*i])%len(fuzzOps)], int(b[3*i+1]), b[3*i+2]
		ins := Instr{Op: op, Rd: fuzzRegs[r%5], Rs1: fuzzRegs[r/5%5], Rs2: fuzzRegs[r/25%5]}
		switch op {
		case BEQ, BNE, BLT, JMP, CALL:
			ins.Imm = base + int64(imm)%int64(n+1) // n: one past the end
		case SYSCALL:
			ins.Imm = int64(imm) % 3 // 0 is exit
		default:
			ins.Imm = int64(int8(imm))
		}
		text[i] = ins
	}
	return text
}

var fuzzBudgets = []int64{1, 2, 3, 4, 5, 7, 64, 1000, 4096}

// FuzzCountedLoop runs arbitrary small programs over the loop alphabet on
// the summarising and the reference machine, in both modes, one Run per
// budget byte, and compares everything after every Run.
func FuzzCountedLoop(f *testing.F) {
	f.Fuzz(func(t *testing.T, text []byte, counter int64, budgets []byte) {
		orig := fuzzText(text, 0)
		if len(orig) == 0 {
			t.Skip()
		}
		if len(budgets) > 64 {
			budgets = budgets[:64]
		}
		p := &Program{
			Text:        append(orig, fuzzText(text, int64(len(orig)))...),
			DataSize:    4096,
			OrigTextLen: int64(len(orig)),
			ShadowBase:  int64(len(orig)),
		}
		// Four machines an input: small ones, so the fuzzer's ten seconds
		// go into Run and not into clearing memory.
		cfg := testCfg()
		cfg.MemSize, cfg.StackSize, cfg.SpecHeapSize = 64<<10, 8<<10, 8<<10
		for _, mode := range []Mode{Normal, Speculative} {
			w := newTwins(t, p, cfg, mode, func() OS { return &scriptOS{} })
			w.each(func(_ *Machine, th *Thread) { th.Regs[6], th.Regs[7] = counter, counter })
			for i, b := range budgets {
				if w.th[0].State != Ready {
					break
				}
				if _, diff := w.run(fuzzBudgets[int(b)%len(fuzzBudgets)]); diff != "" {
					t.Fatalf("mode %d run %d: %s", mode, i, diff)
				}
			}
		}
	})
}
