package vm

import "testing"

// The op predicates drive both the transform and the static analyses, so they
// are checked exhaustively against an explicit classification of every opcode.

func TestOpPredicatesExhaustive(t *testing.T) {
	branch := map[Op]bool{BEQ: true, BNE: true, BLT: true, BGE: true}
	indirect := map[Op]bool{JR: true, CALLR: true, RET: true, JRH: true, CALLRH: true, RETH: true, JTR: true}
	call := map[Op]bool{CALL: true, CALLR: true, CALLRH: true}
	load := map[Op]bool{LDB: true, LDW: true, LDBS: true, LDWS: true}
	store := map[Op]bool{STB: true, STW: true, STBS: true, STWS: true}
	spec := map[Op]bool{LDBS: true, LDWS: true, STBS: true, STWS: true, JRH: true, CALLRH: true, RETH: true, JTR: true}

	for op := NOP; op < opCount; op++ {
		if got := op.IsBranch(); got != branch[op] {
			t.Errorf("%v.IsBranch() = %v", op, got)
		}
		if got := op.IsIndirect(); got != indirect[op] {
			t.Errorf("%v.IsIndirect() = %v", op, got)
		}
		if got := op.IsCall(); got != call[op] {
			t.Errorf("%v.IsCall() = %v", op, got)
		}
		if got := op.IsLoad(); got != load[op] {
			t.Errorf("%v.IsLoad() = %v", op, got)
		}
		if got := op.IsStore(); got != store[op] {
			t.Errorf("%v.IsStore() = %v", op, got)
		}
		if got := op.IsSpeculative(); got != spec[op] {
			t.Errorf("%v.IsSpeculative() = %v", op, got)
		}
		wantControl := branch[op] || indirect[op] || op == JMP || op == CALL
		if got := op.IsControl(); got != wantControl {
			t.Errorf("%v.IsControl() = %v", op, got)
		}
	}
}

func TestWritesReg(t *testing.T) {
	cases := []struct {
		ins  Instr
		reg  uint8
		ok   bool
		name string
	}{
		{Instr{Op: ADD, Rd: 5, Rs1: 1, Rs2: 2}, 5, true, "alu reg"},
		{Instr{Op: MOVI, Rd: 7, Imm: 9}, 7, true, "movi"},
		{Instr{Op: ADDI, Rd: R0, Rs1: 1, Imm: 1}, 0, false, "write to r0"},
		{Instr{Op: LDW, Rd: 3, Rs1: 2}, 3, true, "load"},
		{Instr{Op: LDBS, Rd: 4, Rs1: 2}, 4, true, "checked load"},
		{Instr{Op: STW, Rs1: 2, Rs2: 3}, 0, false, "store"},
		{Instr{Op: CALL, Imm: 10}, RA, true, "call defines ra"},
		{Instr{Op: CALLR, Rs1: 8}, RA, true, "callr defines ra"},
		{Instr{Op: CALLRH, Rs1: 8}, RA, true, "callr.h defines ra"},
		{Instr{Op: JMP, Imm: 3}, 0, false, "jmp"},
		{Instr{Op: RET}, 0, false, "ret"},
		{Instr{Op: SYSCALL, Imm: SysRead}, R1, true, "syscall result in r1"},
		{Instr{Op: BEQ, Rs1: 1, Rs2: 2, Imm: 4}, 0, false, "branch"},
		{Instr{Op: NOP}, 0, false, "nop"},
	}
	for _, c := range cases {
		reg, ok := c.ins.WritesReg()
		if ok != c.ok || (ok && reg != c.reg) {
			t.Errorf("%s: WritesReg(%v) = (%d, %v), want (%d, %v)", c.name, c.ins, reg, ok, c.reg, c.ok)
		}
	}
}

func TestReadsRegs(t *testing.T) {
	reads := func(i Instr) []uint8 { return i.ReadsRegs(nil) }
	cases := []struct {
		ins  Instr
		want []uint8
		name string
	}{
		{Instr{Op: ADD, Rd: 5, Rs1: 1, Rs2: 2}, []uint8{1, 2}, "alu reg"},
		{Instr{Op: ADDI, Rd: 5, Rs1: 3, Imm: 4}, []uint8{3}, "alu imm"},
		{Instr{Op: MOVI, Rd: 5, Imm: 4}, nil, "movi"},
		{Instr{Op: LDW, Rd: 3, Rs1: 6}, []uint8{6}, "load base"},
		{Instr{Op: STW, Rs1: 6, Rs2: 7}, []uint8{6, 7}, "store base+value"},
		{Instr{Op: BNE, Rs1: 2, Rs2: 4, Imm: 9}, []uint8{2, 4}, "branch"},
		{Instr{Op: JMP, Imm: 9}, nil, "jmp"},
		{Instr{Op: JR, Rs1: 8}, []uint8{8}, "jr"},
		{Instr{Op: JTR, Rs1: 8, Imm: 0}, []uint8{8}, "jtr"},
		{Instr{Op: RET}, []uint8{RA}, "ret"},
		{Instr{Op: RETH}, []uint8{RA}, "ret.h"},
		{Instr{Op: SYSCALL, Imm: SysRead}, []uint8{R1, R2, R3, R4}, "syscall args"},
	}
	for _, c := range cases {
		got := reads(c.ins)
		if len(got) != len(c.want) {
			t.Errorf("%s: ReadsRegs(%v) = %v, want %v", c.name, c.ins, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: ReadsRegs(%v) = %v, want %v", c.name, c.ins, got, c.want)
				break
			}
		}
	}
}

// IsControl reports whether o transfers control (unconditionally or not).
// SYSCALL is not control transfer: it always resumes at the next PC.
func (o Op) IsControl() bool {
	return o.IsBranch() || o.IsIndirect() || o == JMP || o == CALL
}

// ReadsRegs appends the registers i uses to dst and returns the extended
// slice. The hardwired zero register is included when named; callers that
// track definitions can ignore it (it has none). SYSCALL conservatively
// reads the full argument convention R1-R4.
func (i Instr) ReadsRegs(dst []uint8) []uint8 {
	switch {
	case i.Op >= ADD && i.Op <= SLT: // register ALU
		return append(dst, i.Rs1, i.Rs2)
	case i.Op >= ADDI && i.Op <= SLTI: // immediate ALU
		return append(dst, i.Rs1)
	case i.Op == MOVI, i.Op == NOP, i.Op == JMP, i.Op == CALL:
		return dst
	case i.Op.IsLoad():
		return append(dst, i.Rs1)
	case i.Op.IsStore():
		return append(dst, i.Rs1, i.Rs2)
	case i.Op.IsBranch():
		return append(dst, i.Rs1, i.Rs2)
	case i.Op == JR, i.Op == CALLR, i.Op == JRH, i.Op == CALLRH, i.Op == JTR:
		return append(dst, i.Rs1)
	case i.Op == RET, i.Op == RETH:
		return append(dst, RA)
	case i.Op == SYSCALL:
		return append(dst, R1, R2, R3, R4)
	}
	return dst
}
