// Package vm implements the virtual machine that stands in for the paper's
// Digital UNIX Alpha binaries: a 64-bit register machine with explicit
// loads/stores, direct and indirect control transfers, jump tables, and a
// small syscall surface (open/close/read/seek/fstat/write/sbrk plus the TIP
// hint calls).
//
// SpecHint (internal/spechint) operates on vm programs the way the real tool
// operated on Alpha binaries: it appends a shadow copy of the text section in
// which loads and stores are rewritten to software-copy-on-write variants,
// static control transfers are redirected into the shadow, and indirect
// transfers are routed through a handling routine. The vm executes both the
// original and the shadow text; speculative-mode memory semantics (COW reads
// and writes, private stack, fault-instead-of-crash) are part of the machine
// because that is where the real machine enforced them too (via address
// spaces and signal handlers).
package vm

import "fmt"

// Op is an instruction opcode.
type Op uint8

// Register-to-register ALU ops compute Rd = Rs1 <op> Rs2; immediate forms
// compute Rd = Rs1 <op> Imm. Branches compare Rs1 with Rs2 and jump to the
// absolute instruction address Imm. Loads read mem[Rs1+Imm] into Rd; stores
// write Rs2 to mem[Rs1+Imm].
const (
	NOP Op = iota

	// ALU, register.
	ADD
	SUB
	MUL
	DIV
	MOD
	AND
	OR
	XOR
	SHL
	SHR
	SLT // set if less than (signed)

	// ALU, immediate.
	ADDI
	ANDI
	ORI
	XORI
	SHLI
	SHRI
	SLTI
	MOVI // Rd = Imm

	// Memory.
	LDB // load unsigned byte
	LDW // load 64-bit word
	STB
	STW

	// Control.
	BEQ
	BNE
	BLT   // signed
	BGE   // signed
	JMP   // pc = Imm
	CALL  // RA = pc+1; pc = Imm
	JR    // pc = Rs1
	CALLR // RA = pc+1; pc = Rs1
	RET   // pc = RA

	SYSCALL // code = Imm; args R1..R4; result R1

	// Speculative (shadow-code) variants, emitted only by SpecHint. The _S
	// memory ops route through the copy-on-write map; the _H control ops
	// route through the dynamic handling routine that maps original-text
	// targets into the shadow. JTR is an indirect jump through a jump table
	// in a format SpecHint recognized and statically validated.
	LDBS
	LDWS
	STBS
	STWS
	JRH
	CALLRH
	RETH
	JTR

	opCount // sentinel
)

var opNames = [...]string{
	NOP: "nop", ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", MOD: "mod",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr", SLT: "slt",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori", SHLI: "shli",
	SHRI: "shri", SLTI: "slti", MOVI: "movi",
	LDB: "ldb", LDW: "ldw", STB: "stb", STW: "stw",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge",
	JMP: "jmp", CALL: "call", JR: "jr", CALLR: "callr", RET: "ret",
	SYSCALL: "syscall",
	LDBS:    "ldb.s", LDWS: "ldw.s", STBS: "stb.s", STWS: "stw.s",
	JRH: "jr.h", CALLRH: "callr.h", RETH: "ret.h", JTR: "jtr",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsLoad reports whether o reads data memory.
func (o Op) IsLoad() bool { return o == LDB || o == LDW || o == LDBS || o == LDWS }

// IsStore reports whether o writes data memory.
func (o Op) IsStore() bool { return o == STB || o == STW || o == STBS || o == STWS }

// IsSpeculative reports whether o is a shadow-only variant.
func (o Op) IsSpeculative() bool {
	switch o {
	case LDBS, LDWS, STBS, STWS, JRH, CALLRH, RETH, JTR:
		return true
	}
	return false
}

// IsBranch reports whether o is a conditional branch (falls through when the
// condition does not hold).
func (o Op) IsBranch() bool { return o == BEQ || o == BNE || o == BLT || o == BGE }

// IsIndirect reports whether o is a register-indirect control transfer,
// including the shadow handler variants and the checked jump-table jump.
// These are the transfers SpecHint cannot rebase statically.
func (o Op) IsIndirect() bool {
	switch o {
	case JR, CALLR, RET, JRH, CALLRH, RETH, JTR:
		return true
	}
	return false
}

// IsCall reports whether o saves a return address before transferring.
func (o Op) IsCall() bool { return o == CALL || o == CALLR || o == CALLRH }

// WritesReg returns the register i defines, if any. Writes to the hardwired
// zero register define nothing. SYSCALL results land in R1 by convention.
func (i Instr) WritesReg() (uint8, bool) {
	var rd uint8
	switch {
	case i.Op >= ADD && i.Op <= MOVI, i.Op.IsLoad():
		rd = i.Rd
	case i.Op.IsCall():
		rd = RA
	case i.Op == SYSCALL:
		rd = R1
	default:
		return 0, false
	}
	if rd == R0 {
		return 0, false
	}
	return rd, true
}

// Register conventions. R0 is hardwired to zero. R1-R4 carry syscall and
// function arguments (R1 also results). RA holds return addresses, SP the
// stack pointer. AT is reserved for tool-inserted code (SpecHint), never
// used by compiled programs.
const (
	R0      = 0
	R1      = 1
	R2      = 2
	R3      = 3
	R4      = 4
	AT      = 26
	RA      = 29
	SP      = 30
	NumRegs = 32
)

// Instr is one instruction. PCs and branch targets are instruction indices
// into the text section, not byte addresses; for size accounting each
// instruction is considered InstrBytes wide, as on the Alpha.
type Instr struct {
	Op           Op
	Rd, Rs1, Rs2 uint8
	Imm          int64
}

// InstrBytes is the encoded size of one instruction (32-bit, like Alpha).
const InstrBytes = 4

func (i Instr) String() string {
	switch {
	case i.Op == NOP || i.Op == RET || i.Op == RETH:
		return i.Op.String()
	case i.Op == SYSCALL:
		return fmt.Sprintf("syscall %d", i.Imm)
	case i.Op == MOVI:
		return fmt.Sprintf("movi r%d, %d", i.Rd, i.Imm)
	case i.Op == JMP || i.Op == CALL:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	case i.Op == JR || i.Op == CALLR || i.Op == JRH || i.Op == CALLRH:
		return fmt.Sprintf("%s r%d", i.Op, i.Rs1)
	case i.Op == JTR:
		return fmt.Sprintf("jtr r%d, table@%d", i.Rs1, i.Imm)
	case i.Op.IsLoad():
		return fmt.Sprintf("%s r%d, %d(r%d)", i.Op, i.Rd, i.Imm, i.Rs1)
	case i.Op.IsStore():
		return fmt.Sprintf("%s r%d, %d(r%d)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case i.Op == BEQ || i.Op == BNE || i.Op == BLT || i.Op == BGE:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case i.Op == ADDI || i.Op == ANDI || i.Op == ORI || i.Op == XORI ||
		i.Op == SHLI || i.Op == SHRI || i.Op == SLTI:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	}
}

// Syscall codes.
const (
	SysExit = iota
	SysOpen
	SysClose
	SysRead
	SysSeek
	SysFstat
	SysWrite
	SysSbrk
	SysPrint    // write NUL-terminated string at R1 to stdout
	SysPrintInt // write integer R1 to stdout
	SysHintFD   // TIPIO_FD_SEG: fd=R1 off=R2 len=R3
	SysHintFile // TIPIO_SEG: path=R1 off=R2 len=R3
	SysCancelAll
	SysCount // sentinel
)

// SyscallName returns a human-readable name for a syscall code.
func SyscallName(code int64) string {
	names := [...]string{
		"exit", "open", "close", "read", "seek", "fstat", "write", "sbrk",
		"print", "printint", "hintfd", "hintfile", "cancelall",
	}
	if code >= 0 && code < int64(len(names)) {
		return names[code]
	}
	return fmt.Sprintf("sys(%d)", code)
}

// JumpTableFormat identifies how a jump table is laid out; SpecHint only
// recognizes a few compiler-dependent formats (the paper, §3.2.1).
type JumpTableFormat int

const (
	// JTAbsolute tables hold absolute instruction addresses as 64-bit words.
	JTAbsolute JumpTableFormat = iota
	// JTUnknown marks a table in a format SpecHint does not recognize;
	// transfers through it cannot be statically redirected.
	JTUnknown
)

// JumpTable describes a switch-statement jump table in the data section.
type JumpTable struct {
	Addr   int64 // data address of the first entry
	Len    int64 // number of entries
	Format JumpTableFormat
}

// Program is a loadable unit: text, initialized data, and metadata.
type Program struct {
	Text     []Instr
	Data     []byte
	DataSize int64 // reserved data+BSS bytes (>= len(Data))
	Entry    int64 // starting PC

	JumpTables []JumpTable

	// Symbols maps label names to text addresses; DataSymbols to data
	// addresses. Used by tooling and tests, not by execution.
	Symbols     map[string]int64
	DataSymbols map[string]int64

	// OrigTextLen is set by SpecHint after transformation: instructions
	// [0, OrigTextLen) are the original text, [ShadowBase, ...) the shadow.
	// Zero means untransformed.
	OrigTextLen int64
	ShadowBase  int64
}

// Validate performs basic structural checks.
func (p *Program) Validate() error {
	if len(p.Text) == 0 {
		return fmt.Errorf("vm: empty text section")
	}
	if p.Entry < 0 || p.Entry >= int64(len(p.Text)) {
		return fmt.Errorf("vm: entry %d outside text [0,%d)", p.Entry, len(p.Text))
	}
	if p.DataSize < int64(len(p.Data)) {
		return fmt.Errorf("vm: DataSize %d < initialized data %d", p.DataSize, len(p.Data))
	}
	for i, ins := range p.Text {
		if ins.Op >= opCount {
			return fmt.Errorf("vm: bad opcode at %d", i)
		}
		if ins.Rd >= NumRegs || ins.Rs1 >= NumRegs || ins.Rs2 >= NumRegs {
			return fmt.Errorf("vm: bad register at %d: %v", i, ins)
		}
	}
	for _, jt := range p.JumpTables {
		if jt.Addr < 0 || jt.Len <= 0 || jt.Addr+jt.Len*8 > p.DataSize {
			return fmt.Errorf("vm: jump table [%d,+%d) outside data", jt.Addr, jt.Len)
		}
	}
	return nil
}

// TextBytes returns the encoded text size, for Table 3 style accounting.
func (p *Program) TextBytes() int64 { return int64(len(p.Text)) * InstrBytes }
