package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// scriptOS is a test OS whose behavior is programmable per syscall code.
type scriptOS struct {
	calls   []int64
	handler func(m *Machine, t *Thread, code int64) SysControl
}

func (o *scriptOS) Syscall(m *Machine, t *Thread, code int64) SysControl {
	o.calls = append(o.calls, code)
	if o.handler != nil {
		return o.handler(m, t, code)
	}
	if code == SysExit {
		t.ExitCode = t.Regs[R1]
		return SysHalt
	}
	t.Regs[R1] = 0
	return SysDone
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.MemSize = 1 << 20
	cfg.StackSize = 64 << 10
	cfg.SpecHeapSize = 64 << 10
	return cfg
}

func prog(text []Instr) *Program {
	return &Program{Text: text, DataSize: 4096}
}

func run(t *testing.T, p *Program, budget int64) (*Machine, *Thread, StopReason) {
	t.Helper()
	os := &scriptOS{}
	m, err := NewMachine(p, os, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread("orig", Normal)
	_, stop := m.Run(th, budget)
	return m, th, stop
}

func exitProg(text ...Instr) *Program {
	text = append(text,
		Instr{Op: MOVI, Rd: R1, Imm: 0},
		Instr{Op: SYSCALL, Imm: SysExit},
	)
	return prog(text)
}

func TestALUAndHalt(t *testing.T) {
	p := exitProg(
		Instr{Op: MOVI, Rd: 10, Imm: 6},
		Instr{Op: MOVI, Rd: 11, Imm: 7},
		Instr{Op: MUL, Rd: 12, Rs1: 10, Rs2: 11},
		Instr{Op: ADDI, Rd: 12, Rs1: 12, Imm: -2},
		Instr{Op: SUB, Rd: 13, Rs1: 12, Rs2: 10},
		Instr{Op: DIV, Rd: 14, Rs1: 12, Rs2: 11},
		Instr{Op: MOD, Rd: 15, Rs1: 12, Rs2: 11},
		Instr{Op: AND, Rd: 16, Rs1: 10, Rs2: 11},
		Instr{Op: OR, Rd: 17, Rs1: 10, Rs2: 11},
		Instr{Op: XOR, Rd: 18, Rs1: 10, Rs2: 11},
		Instr{Op: SHLI, Rd: 19, Rs1: 10, Imm: 2},
		Instr{Op: SHRI, Rd: 20, Rs1: 19, Imm: 1},
		Instr{Op: SLT, Rd: 21, Rs1: 10, Rs2: 11},
		Instr{Op: SLTI, Rd: 22, Rs1: 11, Imm: 3},
	)
	m, th, stop := run(t, p, 1_000_000)
	if stop != StopHalted {
		t.Fatalf("stop = %v (err %v)", stop, th.Err)
	}
	want := map[int]int64{12: 40, 13: 34, 14: 5, 15: 5, 16: 6, 17: 7, 18: 1, 19: 24, 20: 12, 21: 1, 22: 0}
	for r, v := range want {
		if th.Regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, th.Regs[r], v)
		}
	}
	_ = m
}

func TestR0Hardwired(t *testing.T) {
	p := exitProg(
		Instr{Op: MOVI, Rd: R0, Imm: 99},
		Instr{Op: ADD, Rd: 10, Rs1: R0, Rs2: R0},
	)
	_, th, stop := run(t, p, 1000)
	if stop != StopHalted || th.Regs[R0] != 0 || th.Regs[10] != 0 {
		t.Fatalf("R0 = %d, r10 = %d, stop %v", th.Regs[R0], th.Regs[10], stop)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	p := exitProg(
		Instr{Op: MOVI, Rd: 10, Imm: 0x0102030405060708},
		Instr{Op: MOVI, Rd: 11, Imm: 128},
		Instr{Op: STW, Rs1: 11, Rs2: 10, Imm: 8},
		Instr{Op: LDW, Rd: 12, Rs1: 11, Imm: 8},
		Instr{Op: LDB, Rd: 13, Rs1: 11, Imm: 8},
		Instr{Op: MOVI, Rd: 14, Imm: 0xAB},
		Instr{Op: STB, Rs1: 11, Rs2: 14, Imm: 100},
		Instr{Op: LDB, Rd: 15, Rs1: 11, Imm: 100},
	)
	_, th, stop := run(t, p, 1000)
	if stop != StopHalted {
		t.Fatalf("stop = %v (err %v)", stop, th.Err)
	}
	if th.Regs[12] != 0x0102030405060708 || th.Regs[13] != 0x08 || th.Regs[15] != 0xAB {
		t.Fatalf("regs = %x %x %x", th.Regs[12], th.Regs[13], th.Regs[15])
	}
}

func TestBranchesAndLoop(t *testing.T) {
	// sum 1..10 with a BLT loop.
	p := exitProg(
		Instr{Op: MOVI, Rd: 10, Imm: 0},  // sum
		Instr{Op: MOVI, Rd: 11, Imm: 1},  // i
		Instr{Op: MOVI, Rd: 12, Imm: 11}, // limit
		// loop: (pc=3)
		Instr{Op: ADD, Rd: 10, Rs1: 10, Rs2: 11},
		Instr{Op: ADDI, Rd: 11, Rs1: 11, Imm: 1},
		Instr{Op: BLT, Rs1: 11, Rs2: 12, Imm: 3},
	)
	_, th, stop := run(t, p, 10_000)
	if stop != StopHalted || th.Regs[10] != 55 {
		t.Fatalf("sum = %d (stop %v), want 55", th.Regs[10], stop)
	}
}

func TestCallRetWithStack(t *testing.T) {
	// main: call f; exit(r10). f: push RA, set r10=42, pop RA, ret.
	text := []Instr{
		{Op: CALL, Imm: 4},
		{Op: ADD, Rd: R1, Rs1: 10, Rs2: R0},
		{Op: SYSCALL, Imm: SysExit},
		{Op: NOP},
		// f: (pc=4)
		{Op: ADDI, Rd: SP, Rs1: SP, Imm: -8},
		{Op: STW, Rs1: SP, Rs2: RA},
		{Op: MOVI, Rd: 10, Imm: 42},
		{Op: LDW, Rd: RA, Rs1: SP},
		{Op: ADDI, Rd: SP, Rs1: SP, Imm: 8},
		{Op: RET},
	}
	_, th, stop := run(t, prog(text), 1000)
	if stop != StopHalted || th.ExitCode != 42 {
		t.Fatalf("exit = %d (stop %v, err %v)", th.ExitCode, stop, th.Err)
	}
}

func TestIndirectJumpAndCall(t *testing.T) {
	text := []Instr{
		{Op: MOVI, Rd: 10, Imm: 4},
		{Op: CALLR, Rs1: 10},
		{Op: MOVI, Rd: R1, Imm: 0},
		{Op: SYSCALL, Imm: SysExit},
		// target: (pc=4)
		{Op: MOVI, Rd: 11, Imm: 9},
		{Op: RET},
	}
	_, th, stop := run(t, prog(text), 1000)
	if stop != StopHalted || th.Regs[11] != 9 {
		t.Fatalf("r11 = %d (stop %v)", th.Regs[11], stop)
	}
}

func TestDivByZeroIsErrorInNormalMode(t *testing.T) {
	p := exitProg(
		Instr{Op: MOVI, Rd: 10, Imm: 5},
		Instr{Op: DIV, Rd: 11, Rs1: 10, Rs2: R0},
	)
	_, th, stop := run(t, p, 1000)
	if stop != StopError || th.Err == nil {
		t.Fatalf("stop = %v err = %v, want error", stop, th.Err)
	}
}

func TestBadAddressIsErrorInNormalMode(t *testing.T) {
	p := exitProg(
		Instr{Op: MOVI, Rd: 10, Imm: -100},
		Instr{Op: LDW, Rd: 11, Rs1: 10},
	)
	_, _, stop := run(t, p, 1000)
	if stop != StopError {
		t.Fatalf("stop = %v, want StopError", stop)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// Infinite loop.
	p := prog([]Instr{{Op: JMP, Imm: 0}})
	os := &scriptOS{}
	m, err := NewMachine(p, os, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread("orig", Normal)
	used, stop := m.Run(th, 100)
	if stop != StopBudget || used != 100 {
		t.Fatalf("used %d stop %v, want 100 budget", used, stop)
	}
	if th.State != Ready {
		t.Fatalf("state %v, want Ready", th.State)
	}
	// Resumable.
	used, stop = m.Run(th, 50)
	if stop != StopBudget || used != 50 {
		t.Fatalf("resume: used %d stop %v", used, stop)
	}
}

func TestSyscallBlockAndWake(t *testing.T) {
	os := &scriptOS{}
	os.handler = func(m *Machine, th *Thread, code int64) SysControl {
		switch code {
		case SysRead:
			return SysBlock
		case SysExit:
			th.ExitCode = th.Regs[R1]
			return SysHalt
		}
		return SysDone
	}
	p := prog([]Instr{
		{Op: SYSCALL, Imm: SysRead},
		{Op: ADD, Rd: 10, Rs1: R1, Rs2: R0}, // capture result
		{Op: MOVI, Rd: R1, Imm: 0},
		{Op: SYSCALL, Imm: SysExit},
	})
	m, err := NewMachine(p, os, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread("orig", Normal)
	_, stop := m.Run(th, 10_000)
	if stop != StopBlocked || th.State != Blocked {
		t.Fatalf("stop %v state %v", stop, th.State)
	}
	th.Wake(777)
	_, stop = m.Run(th, 10_000)
	if stop != StopHalted || th.Regs[10] != 777 {
		t.Fatalf("after wake: stop %v r10 %d", stop, th.Regs[10])
	}
}

func TestForbiddenSyscallFaultsSpecThread(t *testing.T) {
	os := &scriptOS{handler: func(m *Machine, th *Thread, code int64) SysControl {
		return SysFault
	}}
	p := prog([]Instr{{Op: SYSCALL, Imm: SysWrite}})
	m, err := NewMachine(p, os, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread("spec", Speculative)
	th.State = Ready
	th.PC = 0
	_, stop := m.Run(th, 1000)
	if stop != StopFault || th.State != Faulted || th.Signals != 1 {
		t.Fatalf("stop %v state %v signals %d", stop, th.State, th.Signals)
	}
}

// makeSpecMachine builds a machine with a trivially transformed program:
// shadow text appended at ShadowBase with provided shadow instructions.
func makeSpecMachine(t *testing.T, orig, shadow []Instr) (*Machine, *Thread) {
	t.Helper()
	p := &Program{
		Text:        append(append([]Instr{}, orig...), shadow...),
		DataSize:    4096,
		OrigTextLen: int64(len(orig)),
		ShadowBase:  int64(len(orig)),
	}
	m, err := NewMachine(p, &scriptOS{}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread("spec", Speculative)
	th.State = Ready
	th.PC = p.ShadowBase
	return m, th
}

func TestSpeculativeStoreIsolation(t *testing.T) {
	orig := []Instr{{Op: NOP}}
	shadow := []Instr{
		{Op: MOVI, Rd: 10, Imm: 200},
		{Op: MOVI, Rd: 11, Imm: 55},
		{Op: STWS, Rs1: 10, Rs2: 11},
		{Op: LDWS, Rd: 12, Rs1: 10},
		{Op: JMP, Imm: 5}, // spin to end budget
		{Op: JMP, Imm: 5},
	}
	m, th := makeSpecMachine(t, orig, shadow)
	m.Run(th, 200)
	if th.Regs[12] != 55 {
		t.Fatalf("spec load = %d, want 55", th.Regs[12])
	}
	if binary.LittleEndian.Uint64(m.Mem()[200:]) != 0 {
		t.Fatal("speculative store reached shared memory")
	}
	if th.Cow.Regions() == 0 {
		t.Fatal("no COW region created")
	}
}

func TestSpeculativeUncheckedStoreOutsidePrivateFaults(t *testing.T) {
	orig := []Instr{{Op: NOP}}
	shadow := []Instr{
		{Op: MOVI, Rd: 10, Imm: 500},
		{Op: STW, Rs1: 10, Rs2: 10}, // unchecked store to shared memory
	}
	m, th := makeSpecMachine(t, orig, shadow)
	_, stop := m.Run(th, 1000)
	if stop != StopFault || th.Signals != 1 {
		t.Fatalf("stop %v signals %d, want fault", stop, th.Signals)
	}
}

func TestSpeculativeUncheckedStoreToSpecStackAllowed(t *testing.T) {
	orig := []Instr{{Op: NOP}}
	shadow := []Instr{
		{Op: ADDI, Rd: SP, Rs1: SP, Imm: -8},
		{Op: STW, Rs1: SP, Rs2: SP},
		{Op: LDW, Rd: 10, Rs1: SP},
		{Op: JMP, Imm: 3},
	}
	m, th := makeSpecMachine(t, orig, shadow)
	m.Run(th, 100)
	if th.State != Ready {
		t.Fatalf("state %v, want still running", th.State)
	}
	if th.Regs[10] != th.Regs[SP] {
		t.Fatal("stack store/load mismatch")
	}
}

// TestSpecViewIsOneRule: the speculating thread sees its private area (its
// stack and arena, from MemSize up) the same way through checked and
// unchecked accesses — a checked access goes straight to memory there, with no
// copy — and sees any other byte through its copies. Each row stores with one
// kind and loads with the other, over the same private bytes: well inside the
// area, or at its edge, where a checked word straddles MemSize and its shared
// half still goes through a copy.
func TestSpecViewIsOneRule(t *testing.T) {
	memSize := testCfg().MemSize
	type row struct {
		name           string
		st, ld         Op
		stAddr, ldAddr int64
	}
	var rows []row
	for _, w := range []struct {
		name                 string
		stw, stws, ldw, ldws Op
		edge                 int64 // the checked access's address at the edge
	}{
		{"byte", STB, STBS, LDB, LDBS, memSize},
		{"word", STW, STWS, LDW, LDWS, memSize - 4},
	} {
		in := memSize + 256
		rows = append(rows,
			row{w.name + "/checked store, unchecked load/inside", w.stws, w.ldw, in, in},
			row{w.name + "/unchecked store, checked load/inside", w.stw, w.ldws, in, in},
			row{w.name + "/checked store, unchecked load/edge", w.stws, w.ldw, w.edge, memSize},
			row{w.name + "/unchecked store, checked load/edge", w.stw, w.ldws, memSize, w.edge},
		)
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			const v = 0x1122334455667788
			m, th := makeSpecMachine(t, []Instr{{Op: NOP}}, []Instr{
				{Op: MOVI, Rd: 10, Imm: r.stAddr},
				{Op: MOVI, Rd: 11, Imm: v},
				{Op: r.st, Rs1: 10, Rs2: 11},
				{Op: MOVI, Rd: 12, Imm: r.ldAddr},
				{Op: r.ld, Rd: 13, Rs1: 12},
				{Op: JMP, Imm: 6},
			})
			for a := memSize - 16; a < memSize+16; a++ {
				m.Mem()[a] = byte(0xa0 + a - memSize)
			}
			for a := int64(256); a < 272; a++ {
				m.Mem()[memSize+a] = byte(a)
			}
			// The view the thread should have: memory with the store on top.
			model, shared := bytes.Clone(m.Mem()), bytes.Clone(m.Mem()[:memSize])
			n := int64(1)
			if r.st == STW || r.st == STWS {
				n = 8
			}
			for i := int64(0); i < n; i++ {
				model[r.stAddr+i] = byte(uint64(v) >> (8 * i))
			}
			want := int64(model[r.ldAddr])
			if n == 8 {
				want = int64(binary.LittleEndian.Uint64(model[r.ldAddr:]))
			}
			wantCopies := 0
			if r.st.IsSpeculative() && r.stAddr < memSize {
				wantCopies = 1 // the shared half's region; the private half is memory
			}

			if _, stop := m.Run(th, 1000); stop != StopBudget {
				t.Fatalf("stop %v, signals %d", stop, th.Signals)
			}
			if th.Regs[13] != want {
				t.Fatalf("loaded %#x, want %#x", th.Regs[13], want)
			}
			if !bytes.Equal(m.Mem()[:memSize], shared) {
				t.Fatal("a speculative store reached shared memory")
			}
			if th.Cow.Regions() != wantCopies {
				t.Fatalf("%d regions copied, want %d", th.Cow.Regions(), wantCopies)
			}
		})
	}

	// The case as found: a checked store through a register copied the stack
	// region, so the SP-relative load beside it read memory the copy hid.
	m, th := makeSpecMachine(t, []Instr{{Op: NOP}}, []Instr{
		{Op: MOVI, Rd: 5, Imm: 77},
		{Op: ADDI, Rd: 4, Rs1: SP, Imm: -16},
		{Op: STWS, Rs1: 4, Rs2: 5},
		{Op: LDW, Rd: 6, Rs1: SP, Imm: -16},
		{Op: LDWS, Rd: 7, Rs1: 4},
		{Op: JMP, Imm: 6},
	})
	m.Run(th, 100)
	if th.Regs[6] != 77 || th.Regs[7] != 77 || th.Cow.Regions() != 0 {
		t.Fatalf("r6 = %d, r7 = %d after %d copies, want 77, 77 and none", th.Regs[6], th.Regs[7], th.Cow.Regions())
	}

	// A path built on the speculative stack by an unchecked store after a
	// checked one, and one that starts in shared memory and ends on the stack.
	path := int64(binary.LittleEndian.Uint64([]byte("in/x\x00\x00\x00\x00")))
	m, th = makeSpecMachine(t, []Instr{{Op: NOP}}, []Instr{
		{Op: ADDI, Rd: 4, Rs1: SP, Imm: -32},
		{Op: STWS, Rs1: 4, Rs2: R0},
		{Op: MOVI, Rd: 5, Imm: path},
		{Op: STW, Rs1: SP, Rs2: 5, Imm: -32},
		{Op: JMP, Imm: 5},
	})
	m.Run(th, 100)
	if s, err := m.ReadCStr(th, th.Regs[SP]-32, nil); err != nil || string(s) != "in/x" {
		t.Fatalf("ReadCStr on the speculative stack = %q, %v; want \"in/x\"", s, err)
	}
	lo, _ := m.specStackBounds()
	if err := m.WriteMem(th, lo-3, []byte("sha")); err != nil {
		t.Fatal(err)
	}
	copy(m.Mem()[lo:], "red\x00")
	if s, err := m.ReadCStr(th, lo-3, nil); err != nil || string(s) != "shared" {
		t.Fatalf("ReadCStr across the private edge = %q, %v; want \"shared\"", s, err)
	}
	if th.Cow.Regions() != 1 {
		t.Fatalf("%d regions copied, want the one below the edge", th.Cow.Regions())
	}
}

func TestSpecSPBoundsCheck(t *testing.T) {
	orig := []Instr{{Op: NOP}}
	shadow := []Instr{
		{Op: MOVI, Rd: SP, Imm: 100}, // SP escapes the private stack
	}
	m, th := makeSpecMachine(t, orig, shadow)
	_, stop := m.Run(th, 100)
	if stop != StopFault {
		t.Fatalf("stop %v, want fault on SP escape", stop)
	}
}

func TestRedirectIndirectTransfers(t *testing.T) {
	// RA holds an original-text address; RETH must land in the shadow.
	orig := []Instr{
		{Op: NOP},
		{Op: NOP},
		{Op: NOP},
	}
	shadow := []Instr{
		{Op: MOVI, Rd: RA, Imm: 1}, // original-text address
		{Op: RETH},
		{Op: MOVI, Rd: 10, Imm: 123}, // shadow of orig pc=1... pc=5 here
		{Op: JMP, Imm: 6},
		{Op: JMP, Imm: 6},
		{Op: JMP, Imm: 6},
	}
	m, th := makeSpecMachine(t, orig, shadow)
	m.Run(th, 50)
	// RETH target 1 maps to ShadowBase+1 = 4... text: orig len 3, shadow
	// starts at 3. MOVI at 3, RETH at 4, so target 1 -> 3+1 = 4? That is
	// the RETH itself; careful: we just verify PC landed in shadow range.
	if th.PC < m.Program().ShadowBase {
		t.Fatalf("PC %d escaped shadow", th.PC)
	}
}

func TestUnmappableIndirectTargetFaults(t *testing.T) {
	orig := []Instr{{Op: NOP}}
	shadow := []Instr{
		{Op: MOVI, Rd: 10, Imm: 999999},
		{Op: JRH, Rs1: 10},
	}
	m, th := makeSpecMachine(t, orig, shadow)
	_, stop := m.Run(th, 100)
	if stop != StopFault {
		t.Fatalf("stop %v, want fault on unmappable target", stop)
	}
}

func TestSpecLoadCheckCostsCycles(t *testing.T) {
	orig := []Instr{{Op: NOP}}
	mk := func(op Op) int64 {
		shadow := []Instr{
			{Op: MOVI, Rd: 10, Imm: 64},
			{Op: op, Rd: 11, Rs1: 10},
			{Op: SYSCALL, Imm: SysExit},
		}
		m, th := makeSpecMachine(t, orig, shadow)
		used, _ := m.Run(th, 10_000)
		return used
	}
	plain := mk(LDW)
	checked := mk(LDWS)
	if checked <= plain {
		t.Fatalf("checked load cost %d <= plain %d", checked, plain)
	}
}

func TestCopyStackForSpec(t *testing.T) {
	p := prog([]Instr{{Op: NOP}})
	m, err := NewMachine(p, &scriptOS{}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Simulate original stack contents.
	origSP := m.cfg.MemSize - 64
	for i := int64(0); i < 64; i++ {
		m.Mem()[origSP+i] = byte(i + 1)
	}
	specSP := m.CopyStackForSpec(origSP)
	lo, hi := m.specStackBounds()
	if specSP < lo || specSP > hi {
		t.Fatalf("specSP %d outside [%d,%d]", specSP, lo, hi)
	}
	if hi-specSP != 64 {
		t.Fatalf("spec stack depth %d, want 64", hi-specSP)
	}
	for i := int64(0); i < 64; i++ {
		if m.Mem()[specSP+i] != byte(i+1) {
			t.Fatalf("stack copy mismatch at %d", i)
		}
	}
}

func TestSbrkSeparateArenas(t *testing.T) {
	p := prog([]Instr{{Op: NOP}})
	m, err := NewMachine(p, &scriptOS{}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	norm := m.NewThread("orig", Normal)
	spec := m.NewThread("spec", Speculative)
	a := m.Sbrk(norm, 100)
	b := m.Sbrk(norm, 100)
	if b != a+104 {
		t.Fatalf("normal sbrk: %d then %d", a, b)
	}
	s1 := m.Sbrk(spec, 100)
	if s1 < m.cfg.MemSize {
		t.Fatalf("spec sbrk %d in shared space", s1)
	}
	m.ResetSpecBrk()
	s2 := m.Sbrk(spec, 8)
	if s2 != s1 {
		t.Fatalf("ResetSpecBrk did not rewind: %d vs %d", s2, s1)
	}
	// Exhaustion returns -1.
	if m.Sbrk(spec, 1<<40) != -1 {
		t.Fatal("huge spec sbrk succeeded")
	}
	if m.Sbrk(norm, 1<<40) != -1 {
		t.Fatal("huge sbrk succeeded")
	}
}

func TestReadWriteMemAndCStr(t *testing.T) {
	p := prog([]Instr{{Op: NOP}})
	m, err := NewMachine(p, &scriptOS{}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	norm := m.NewThread("orig", Normal)
	spec := m.NewThread("spec", Speculative)

	if err := m.WriteMem(norm, 100, []byte("hi\x00")); err != nil {
		t.Fatal(err)
	}
	s, err := m.ReadCStr(norm, 100, nil)
	if err != nil || string(s) != "hi" {
		t.Fatalf("ReadCStr = %q, %v", s, err)
	}
	// Speculative write goes to COW; normal view unchanged.
	if err := m.WriteMem(spec, 100, []byte("yo")); err != nil {
		t.Fatal(err)
	}
	s, _ = m.ReadCStr(norm, 100, s)
	if string(s) != "hi" {
		t.Fatalf("spec WriteMem leaked: %q", s)
	}
	s, err = m.ReadCStr(spec, 100, s)
	if err != nil || string(s) != "yo" {
		t.Fatalf("spec view = %q, %v", s, err)
	}
	// Spec write to its private area is direct.
	lo, _ := m.specStackBounds()
	if err := m.WriteMem(spec, lo, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if m.Mem()[lo] != 'x' {
		t.Fatal("private-area write not direct")
	}
	// Bounds errors.
	if err := m.WriteMem(norm, -1, []byte("x")); err == nil {
		t.Fatal("negative write accepted")
	}
	if _, err := m.ReadMem(norm, int64(len(m.Mem())), 1); err == nil {
		t.Fatal("out-of-range read accepted")
	}
}

// rampSource is a Source whose byte at off is byte(off); it counts its reads.
type rampSource struct{ reads int }

func (r *rampSource) ReadAt(dst []byte, off int64) {
	r.reads++
	for i := range dst {
		dst[i] = byte(off + int64(i))
	}
}

// TestWriteFrom: a source's bytes land straight in memory for the original
// thread and the speculating thread's private area, and in copies — across
// several regions, leaving shared memory alone — for a speculative write
// anywhere else.
func TestWriteFrom(t *testing.T) {
	m, err := NewMachine(prog([]Instr{{Op: NOP}}), &scriptOS{}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	norm := m.NewThread("orig", Normal)
	spec := m.NewThread("spec", Speculative)
	region := int64(m.cfg.COWRegion)
	view := func(th *Thread, addr, n int64) []byte {
		t.Helper()
		b, err := m.ReadMem(th, addr, n)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := func(off, n int64) []byte {
		b := make([]byte, n)
		new(rampSource).ReadAt(b, off)
		return b
	}

	if err := m.WriteFrom(norm, 100, 50, &rampSource{}, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Mem()[100:150], want(7, 50)) {
		t.Fatal("original thread's write did not land in memory")
	}

	addr, n := region-3, 2*region+10 // spans four regions
	if err := m.WriteFrom(spec, addr, n, &rampSource{}, 1000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view(spec, addr, n), want(1000, n)) {
		t.Fatal("speculating thread does not see its write")
	}
	if !bytes.Equal(view(norm, addr, n), make([]byte, n)) || spec.Cow.Regions() != 4 {
		t.Fatalf("speculative write leaked into shared memory or made %d copies, want 4", spec.Cow.Regions())
	}

	lo, _ := m.specStackBounds()
	if err := m.WriteFrom(spec, lo, 30, &rampSource{}, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Mem()[lo:lo+30], want(3, 30)) || spec.Cow.Regions() != 4 {
		t.Fatal("private-area write not direct")
	}
}

func TestPageAccounting(t *testing.T) {
	p := exitProg(
		Instr{Op: MOVI, Rd: 10, Imm: 0},
		Instr{Op: STB, Rs1: 10, Rs2: 11, Imm: 0},
		Instr{Op: MOVI, Rd: 10, Imm: 8192},
		Instr{Op: STB, Rs1: 10, Rs2: 11, Imm: 0},
		Instr{Op: STB, Rs1: 10, Rs2: 11, Imm: 1}, // same page
	)
	m, _, stop := run(t, p, 10_000)
	if stop != StopHalted {
		t.Fatalf("stop %v", stop)
	}
	pg := m.Pages()
	// Two data pages plus one stack page? No stack use here: exactly 2.
	if pg.Touched != 2 || pg.Faults != 2 {
		t.Fatalf("pages = %+v, want 2 touched 2 faults", pg)
	}
}

func TestJumpTableJTR(t *testing.T) {
	// Orig text: 4 entries; shadow: load from table, JTR.
	orig := []Instr{
		{Op: NOP}, {Op: NOP}, {Op: NOP}, {Op: NOP},
	}
	shadow := []Instr{
		{Op: MOVI, Rd: 10, Imm: 2}, // pretend loaded from jump table: orig pc 2
		{Op: JTR, Rs1: 10, Imm: 0},
	}
	m, th := makeSpecMachine(t, orig, shadow)
	m.Run(th, 10)
	if th.PC != m.Program().ShadowBase+2 {
		t.Fatalf("JTR landed at %d, want %d", th.PC, m.Program().ShadowBase+2)
	}
}

func TestProgramValidate(t *testing.T) {
	bad := []*Program{
		{},
		{Text: []Instr{{Op: NOP}}, Entry: 5},
		{Text: []Instr{{Op: NOP}}, Data: []byte{1, 2, 3}, DataSize: 1},
		{Text: []Instr{{Op: opCount}}, DataSize: 0},
		{Text: []Instr{{Op: NOP, Rd: 77}}},
		{Text: []Instr{{Op: NOP}}, DataSize: 16, JumpTables: []JumpTable{{Addr: 8, Len: 2}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad program %d accepted", i)
		}
	}
	good := &Program{Text: []Instr{{Op: NOP}}, DataSize: 16, JumpTables: []JumpTable{{Addr: 0, Len: 2}}}
	if err := good.Validate(); err != nil {
		t.Errorf("good program rejected: %v", err)
	}
}

func TestInstrString(t *testing.T) {
	ins := []Instr{
		{Op: NOP}, {Op: MOVI, Rd: 1, Imm: 5}, {Op: LDW, Rd: 2, Rs1: 3, Imm: 8},
		{Op: STB, Rs1: 1, Rs2: 2}, {Op: BEQ, Rs1: 1, Rs2: 2, Imm: 7},
		{Op: SYSCALL, Imm: SysRead}, {Op: JTR, Rs1: 4, Imm: 0},
		{Op: ADD, Rd: 1, Rs1: 2, Rs2: 3}, {Op: JR, Rs1: 5}, {Op: RET},
		{Op: ADDI, Rd: 1, Rs1: 1, Imm: -1}, {Op: JMP, Imm: 3},
	}
	for _, i := range ins {
		if i.String() == "" {
			t.Errorf("empty String for %v", i.Op)
		}
	}
	if Op(200).String() == "" {
		t.Error("unknown op String empty")
	}
	if SyscallName(99) == "" || SyscallName(SysRead) != "read" {
		t.Error("SyscallName wrong")
	}
}

func TestJTRUnmappableTargetFaults(t *testing.T) {
	orig := []Instr{{Op: NOP}, {Op: NOP}}
	shadow := []Instr{
		{Op: MOVI, Rd: 10, Imm: 999999}, // garbage table value
		{Op: JTR, Rs1: 10, Imm: 0},
	}
	m, th := makeSpecMachine(t, orig, shadow)
	_, stop := m.Run(th, 100)
	if stop != StopFault || th.Signals != 1 {
		t.Fatalf("stop %v signals %d, want fault", stop, th.Signals)
	}
}

func TestSpecPCOutsideTextFaults(t *testing.T) {
	orig := []Instr{{Op: NOP}}
	shadow := []Instr{{Op: JMP, Imm: 500000}}
	m, th := makeSpecMachine(t, orig, shadow)
	_, stop := m.Run(th, 100)
	if stop != StopFault {
		t.Fatalf("stop %v, want fault on wild PC", stop)
	}
}

func TestReadCStrUnterminated(t *testing.T) {
	p := prog([]Instr{{Op: NOP}})
	m, err := NewMachine(p, &scriptOS{}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread("t", Normal)
	// Fill a region with non-zero bytes right up to a memory boundary check.
	for i := 0; i < 5000; i++ {
		m.Mem()[100+i] = 'x'
	}
	if _, err := m.ReadCStr(th, 100, nil); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if _, err := m.ReadCStr(th, int64(len(m.Mem()))-2, nil); err == nil {
		// last two bytes are zero -> valid empty-ish string is fine; move
		// the probe outside memory instead
		if _, err := m.ReadCStr(th, int64(len(m.Mem()))+10, nil); err == nil {
			t.Fatal("out-of-memory string accepted")
		}
	}
}

func TestWakePanicsOnNonBlocked(t *testing.T) {
	p := prog([]Instr{{Op: NOP}})
	m, err := NewMachine(p, &scriptOS{}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread("t", Normal)
	defer func() {
		if recover() == nil {
			t.Fatal("Wake of ready thread did not panic")
		}
	}()
	th.Wake(1)
	_ = m
}

func TestRunPanicsOnNonReady(t *testing.T) {
	p := prog([]Instr{{Op: NOP}})
	m, err := NewMachine(p, &scriptOS{}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread("t", Normal)
	th.State = Halted
	defer func() {
		if recover() == nil {
			t.Fatal("Run of halted thread did not panic")
		}
	}()
	m.Run(th, 10)
}

func TestMachineGeometryValidation(t *testing.T) {
	p := prog([]Instr{{Op: NOP}})
	bad := []Config{
		func() Config { c := testCfg(); c.MemSize = 0; return c }(),
		func() Config { c := testCfg(); c.StackSize = c.MemSize; return c }(),
		func() Config { c := testCfg(); c.MemSize = 4096; c.StackSize = 64 << 10; return c }(),
		func() Config { c := testCfg(); c.PageBytes = 0; return c }(),
		func() Config { c := testCfg(); c.PageBytes = 6000; return c }(),
		func() Config { c := testCfg(); c.ReclaimGap = -1; return c }(),
	}
	for i, cfg := range bad {
		if _, err := NewMachine(p, &scriptOS{}, cfg); err == nil {
			t.Errorf("bad geometry %d accepted", i)
		}
	}
	big := prog([]Instr{{Op: NOP}})
	big.DataSize = testCfg().MemSize
	if _, err := NewMachine(big, &scriptOS{}, testCfg()); err == nil {
		t.Error("data larger than memory accepted")
	}
}

func TestNormalModeIndirectGarbageIsError(t *testing.T) {
	p := prog([]Instr{
		{Op: MOVI, Rd: 10, Imm: 1 << 40},
		{Op: JR, Rs1: 10},
	})
	_, _, stop := run(t, p, 100)
	if stop != StopError {
		t.Fatalf("stop = %v, want error on wild jump in normal mode", stop)
	}
}

// Program returns the loaded program.
func (m *Machine) Program() *Program { return m.prog }

// Mem exposes raw memory for loaders and tests.
func (m *Machine) Mem() []byte { return m.mem }

// ReadMem copies n bytes at addr out of the thread's view of memory
// (the speculative view for speculative threads).
func (m *Machine) ReadMem(t *Thread, addr, n int64) ([]byte, error) {
	if !m.validAddr(addr, n) {
		return nil, fmt.Errorf("vm: read [%d,+%d) out of range", addr, n)
	}
	buf := make([]byte, n)
	if t.Mode == Speculative {
		for i := int64(0); i < n; i++ {
			buf[i] = byte(m.specLoad(t, addr+i, 1))
		}
	} else {
		copy(buf, m.mem[addr:addr+n])
	}
	return buf, nil
}
