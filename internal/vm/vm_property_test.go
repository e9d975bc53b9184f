package vm

import (
	"testing"
	"testing/quick"
)

// runALU executes a single ALU op on a fresh machine and returns Rd.
func runALU(t *testing.T, op Op, a, b int64, imm int64) (int64, StopReason) {
	t.Helper()
	p := prog([]Instr{
		{Op: MOVI, Rd: 10, Imm: a},
		{Op: MOVI, Rd: 11, Imm: b},
		{Op: op, Rd: 12, Rs1: 10, Rs2: 11, Imm: imm},
		{Op: MOVI, Rd: R1, Imm: 0},
		{Op: SYSCALL, Imm: SysExit},
	})
	m, err := NewMachine(p, &scriptOS{}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread("t", Normal)
	_, stop := m.Run(th, 1000)
	return th.Regs[12], stop
}

// Property: every register ALU op matches Go's int64 semantics.
func TestPropertyALUMatchesGo(t *testing.T) {
	type alu struct {
		op Op
		fn func(a, b int64) int64
	}
	ops := []alu{
		{ADD, func(a, b int64) int64 { return a + b }},
		{SUB, func(a, b int64) int64 { return a - b }},
		{MUL, func(a, b int64) int64 { return a * b }},
		{AND, func(a, b int64) int64 { return a & b }},
		{OR, func(a, b int64) int64 { return a | b }},
		{XOR, func(a, b int64) int64 { return a ^ b }},
		{SHL, func(a, b int64) int64 { return a << uint64(b&63) }},
		{SHR, func(a, b int64) int64 { return int64(uint64(a) >> uint64(b&63)) }},
		{SLT, func(a, b int64) int64 {
			if a < b {
				return 1
			}
			return 0
		}},
	}
	for _, o := range ops {
		o := o
		f := func(a, b int64) bool {
			got, stop := runALU(t, o.op, a, b, 0)
			return stop == StopHalted && got == o.fn(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%v: %v", o.op, err)
		}
	}
}

// Property: DIV and MOD match Go for nonzero divisors and fault on zero.
func TestPropertyDivMod(t *testing.T) {
	f := func(a, b int64) bool {
		if b == 0 {
			_, stop := runALU(t, DIV, a, b, 0)
			return stop == StopError
		}
		q, s1 := runALU(t, DIV, a, b, 0)
		r, s2 := runALU(t, MOD, a, b, 0)
		return s1 == StopHalted && s2 == StopHalted && q == a/b && r == a%b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a stored word always loads back identically at any valid
// aligned-or-not address, in both normal and speculative mode.
func TestPropertyStoreLoadRoundTrip(t *testing.T) {
	p := prog([]Instr{{Op: NOP}, {Op: NOP}})
	p.OrigTextLen = 1
	p.ShadowBase = 1
	f := func(addr uint16, v int64, speculative bool) bool {
		m, err := NewMachine(p, &scriptOS{}, testCfg())
		if err != nil {
			return false
		}
		a := int64(addr) // within data region
		if speculative {
			th := m.NewThread("spec", Speculative)
			th.Cow.StoreWord(m.Mem(), a, v)
			return th.Cow.LoadWord(m.Mem(), a) == v
		}
		th := m.NewThread("norm", Normal)
		if err := m.WriteMem(th, a, []byte{byte(v), byte(v >> 8)}); err != nil {
			return false
		}
		got, err := m.ReadMem(th, a, 2)
		return err == nil && got[0] == byte(v) && got[1] == byte(v>>8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: speculative execution of random store-heavy code never mutates
// shared memory outside the speculative private area.
func TestPropertySpecStoresNeverLeak(t *testing.T) {
	f := func(addrs []uint16, vals []uint8) bool {
		if len(addrs) > 16 {
			addrs = addrs[:16]
		}
		var orig, shadow []Instr
		orig = append(orig, Instr{Op: NOP})
		for i, a := range addrs {
			v := int64(0)
			if i < len(vals) {
				v = int64(vals[i])
			}
			shadow = append(shadow,
				Instr{Op: MOVI, Rd: 10, Imm: int64(a)},
				Instr{Op: MOVI, Rd: 11, Imm: v},
				Instr{Op: STWS, Rs1: 10, Rs2: 11},
				Instr{Op: STBS, Rs1: 10, Rs2: 11, Imm: 9},
			)
		}
		shadow = append(shadow, Instr{Op: SYSCALL, Imm: SysExit})
		p := &Program{
			Text:        append(append([]Instr{}, orig...), shadow...),
			DataSize:    1 << 16,
			OrigTextLen: int64(len(orig)),
			ShadowBase:  int64(len(orig)),
		}
		m, err := NewMachine(p, &scriptOS{}, testCfg())
		if err != nil {
			return false
		}
		before := append([]byte(nil), m.Mem()...)
		th := m.NewThread("spec", Speculative)
		th.State = Ready
		th.PC = p.ShadowBase
		m.Run(th, 1_000_000)
		after := m.Mem()
		lo, _ := m.specStackBounds()
		for i := int64(0); i < lo; i++ {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBranchOpsAllDirections(t *testing.T) {
	cases := []struct {
		op    Op
		a, b  int64
		taken bool
	}{
		{BEQ, 5, 5, true}, {BEQ, 5, 6, false},
		{BNE, 5, 6, true}, {BNE, 5, 5, false},
		{BLT, -1, 0, true}, {BLT, 0, 0, false}, {BLT, 1, 0, false},
		{BGE, 0, 0, true}, {BGE, 1, 0, true}, {BGE, -1, 0, false},
	}
	for _, c := range cases {
		p := prog([]Instr{
			{Op: MOVI, Rd: 10, Imm: c.a},
			{Op: MOVI, Rd: 11, Imm: c.b},
			{Op: c.op, Rs1: 10, Rs2: 11, Imm: 6},
			{Op: MOVI, Rd: 12, Imm: 1}, // fall-through marker
			{Op: MOVI, Rd: R1, Imm: 0},
			{Op: SYSCALL, Imm: SysExit},
			// taken target:
			{Op: MOVI, Rd: 12, Imm: 2},
			{Op: MOVI, Rd: R1, Imm: 0},
			{Op: SYSCALL, Imm: SysExit},
		})
		_, th, stop := run(t, p, 1000)
		if stop != StopHalted {
			t.Fatalf("%v: stop %v", c.op, stop)
		}
		want := int64(1)
		if c.taken {
			want = 2
		}
		if th.Regs[12] != want {
			t.Errorf("%v(%d,%d): marker %d, want %d", c.op, c.a, c.b, th.Regs[12], want)
		}
	}
}

func TestPendingCyclesConsumedAtSliceStart(t *testing.T) {
	p := prog([]Instr{{Op: JMP, Imm: 0}})
	m, err := NewMachine(p, &scriptOS{}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread("t", Normal)
	th.PendingCycles = 95
	used, stop := m.Run(th, 100)
	if stop != StopBudget || used != 100 {
		t.Fatalf("used %d stop %v", used, stop)
	}
	// 95 pending + 5 instructions of the loop.
	if th.Instrs != 5 {
		t.Fatalf("Instrs = %d, want 5", th.Instrs)
	}
	// Pending larger than budget consumes the slice entirely.
	th.PendingCycles = 1000
	used, stop = m.Run(th, 100)
	if stop != StopBudget || used != 1000 || th.Instrs != 5 {
		t.Fatalf("oversized pending: used %d stop %v instrs %d", used, stop, th.Instrs)
	}
}

func TestSyscallYieldStopsSlice(t *testing.T) {
	os := &scriptOS{handler: func(m *Machine, th *Thread, code int64) SysControl {
		return SysYield
	}}
	p := prog([]Instr{
		{Op: SYSCALL, Imm: SysWrite},
		{Op: MOVI, Rd: 10, Imm: 1},
	})
	m, err := NewMachine(p, os, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread("t", Normal)
	_, stop := m.Run(th, 10_000)
	if stop != StopYield || th.State != Ready {
		t.Fatalf("stop %v state %v", stop, th.State)
	}
	if th.Regs[10] != 0 {
		t.Fatal("instruction after yield executed in same slice")
	}
	// Resumable at the next instruction.
	m.Run(th, 10_000)
	if th.Regs[10] != 1 {
		t.Fatal("did not resume after yield")
	}
}

func TestSliceUsedVisibleToOS(t *testing.T) {
	var seen []int64
	os := &scriptOS{handler: func(m *Machine, th *Thread, code int64) SysControl {
		seen = append(seen, m.SliceUsed())
		if code == SysExit {
			return SysHalt
		}
		return SysDone
	}}
	p := prog([]Instr{
		{Op: NOP},
		{Op: SYSCALL, Imm: SysWrite},
		{Op: NOP},
		{Op: NOP},
		{Op: SYSCALL, Imm: SysExit},
	})
	m, err := NewMachine(p, os, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread("t", Normal)
	m.Run(th, 10_000)
	// First syscall after 1 NOP + syscall cost; second after 2 more NOPs.
	if len(seen) != 2 || seen[1] <= seen[0] {
		t.Fatalf("SliceUsed sequence %v", seen)
	}
}

func TestSpecHeapExhaustion(t *testing.T) {
	p := prog([]Instr{{Op: NOP}})
	cfg := testCfg()
	m, err := NewMachine(p, &scriptOS{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := m.NewThread("spec", Speculative)
	total := int64(0)
	for {
		v := m.Sbrk(spec, 4096)
		if v == -1 {
			break
		}
		total += 4096
	}
	if total != cfg.SpecHeapSize {
		t.Fatalf("spec heap yielded %d, want %d", total, cfg.SpecHeapSize)
	}
}

func TestStackOverflowDetected(t *testing.T) {
	p := prog([]Instr{
		{Op: ADDI, Rd: SP, Rs1: SP, Imm: -(1 << 30)},
	})
	_, _, stop := run(t, p, 100)
	if stop != StopError {
		t.Fatalf("stop = %v, want StopError on stack overflow", stop)
	}
}
