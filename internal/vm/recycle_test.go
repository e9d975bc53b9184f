package vm

import (
	"bytes"
	"testing"
)

// TestRecycledMemoryIsInvisible: a released machine's memory, handed to the
// next NewMachine, holds exactly what a never-recycled machine's would — zero
// but for the new program's data. The first machine writes through every
// path, those that never touch a page among them: ordinary stores, WriteMem,
// WriteFrom, CopyStackForSpec, and the speculating thread's stores into its
// private stack and sbrk arena. A released machine panics when run, and a
// second Release must not hand the same memory out twice.
func TestRecycledMemoryIsInvisible(t *testing.T) {
	cfg := testCfg()
	total := cfg.MemSize + cfg.StackSize + cfg.SpecHeapSize
	const arenaReg = 12 // the speculating thread's sbrk pointer
	orig := []Instr{
		{Op: MOVI, Rd: 10, Imm: 3 * 8192},
		{Op: MOVI, Rd: 11, Imm: -1},
		{Op: STW, Rs1: 10, Rs2: 11, Imm: 8},
		{Op: ADDI, Rd: SP, Rs1: SP, Imm: -64},
		{Op: STW, Rs1: SP, Rs2: 11, Imm: 8},
		{Op: SYSCALL, Imm: SysPrintInt}, // the test reads SP here
		{Op: MOVI, Rd: R1, Imm: 0},
		{Op: SYSCALL, Imm: SysExit},
	}
	shadow := []Instr{
		{Op: MOVI, Rd: 11, Imm: -1},
		{Op: ADDI, Rd: SP, Rs1: SP, Imm: -2 * 8192}, // below the copied stack's page
		{Op: STW, Rs1: SP, Rs2: 11},
		{Op: STW, Rs1: arenaReg, Rs2: 11, Imm: 24},
		{Op: JMP, Imm: int64(len(orig)) + 4}, // spin out the budget
	}
	a := &Program{
		Text:        append(append([]Instr{}, orig...), shadow...),
		Data:        bytes.Repeat([]byte{0xAA}, 5000),
		DataSize:    2 * 8192,
		OrigTextLen: int64(len(orig)),
		ShadowBase:  int64(len(orig)),
	}
	var atCall int64 // the original thread's SP at its syscall
	os := &scriptOS{handler: func(m *Machine, th *Thread, code int64) SysControl {
		switch code {
		case SysPrintInt:
			atCall = th.Regs[SP]
			return SysDone
		case SysExit:
			return SysHalt
		}
		return SysDone
	}}
	m, err := NewMachine(a, os, cfg)
	if err != nil {
		t.Fatal(err)
	}
	norm := m.NewThread("orig", Normal)
	if _, stop := m.Run(norm, 1000); stop != StopHalted {
		t.Fatalf("original thread stopped with %v (err %v)", stop, norm.Err)
	}
	specSP := m.CopyStackForSpec(atCall)
	spec := m.NewThread("spec", Speculative)
	spec.State, spec.PC = Ready, a.ShadowBase
	spec.Regs[arenaReg] = m.Sbrk(spec, 3*8192)
	m.Run(spec, 200)

	writes := map[string]int64{ // one written byte per path
		"store":             3*8192 + 8,
		"stack store":       atCall + 8,
		"CopyStackForSpec":  specSP + 8,
		"spec stack store":  cfg.MemSize + cfg.StackSize - 2*8192,
		"spec arena store":  spec.Regs[arenaReg] + 24,
		"WriteMem":          5*8192 + 100,
		"WriteFrom":         7*8192 + 1,
		"spec WriteMem":     spec.Regs[arenaReg] + 8192,
		"spec WriteFrom":    spec.Regs[arenaReg] + 2*8192,
		"program data tail": 4999,
	}
	if err := m.WriteMem(norm, writes["WriteMem"], []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFrom(norm, writes["WriteFrom"], 3000, &rampSource{}, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteMem(spec, writes["spec WriteMem"], []byte{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFrom(spec, writes["spec WriteFrom"], 100, &rampSource{}, 1); err != nil {
		t.Fatal(err)
	}
	for path, addr := range writes {
		if m.mem[addr] == 0 {
			t.Fatalf("%s left byte %d zero; the test writes nothing through it", path, addr)
		}
	}

	used := m.mem
	m.Release()
	if m.mem != nil {
		t.Fatal("Release kept the machine's memory")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Run on a released machine did not panic")
			}
		}()
		m.Run(m.NewThread("late", Normal), 100)
	}()

	b := prog([]Instr{{Op: NOP}})
	b.Data = bytes.Repeat([]byte{0x55}, 700)
	m2, err := NewMachine(b, &scriptOS{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if &m2.mem[0] != &used[0] {
		t.Fatal("NewMachine did not recycle the released memory")
	}
	want := make([]byte, total)
	copy(want, b.Data)
	for path, addr := range writes {
		if m2.mem[addr] != want[addr] {
			t.Errorf("recycled memory keeps the byte %s wrote at %d", path, addr)
		}
	}
	if !bytes.Equal(m2.mem, want) {
		t.Fatal("recycled memory differs from a fresh machine's")
	}

	m.Release() // a second release hands nothing out again
	m3, err := NewMachine(b, &scriptOS{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if &m3.mem[0] == &m2.mem[0] {
		t.Fatal("a machine released twice gave its memory to two machines")
	}
}
