package vm

// Pre-decoded dispatch. Program text is immutable once a Machine is loaded,
// so NewMachine flattens it into a []dInstr in which everything the
// interpreter would otherwise recompute per step is resolved once:
//
//   - op variants collapse into a dense class enum (byte/word loads share a
//     class distinguished by a width flag; CALL is JMP plus a link flag; RET
//     is JR with Rs1 pre-resolved to RA), so the Run loop switches over
//     contiguous small integers, which the compiler lowers to a jump table;
//   - the base cycle cost of every instruction (Default/Mul/Div/Syscall plus
//     the speculative check surcharges) is precomputed into the entry;
//   - the SP-discipline check predicate (Rd == SP on a non-store) becomes a
//     flag bit instead of three comparisons per step;
//   - the header of a pure counted spin loop gets a class of its own (dSPIN),
//     which lets Run retire whole iterations in closed form (markSpinLoops),
//     and so does the header of a word-sum or byte-scan loop (dSCAN, dSCANS),
//     whose iterations Run retires in native code (markScanLoops).
//
// The original []Instr stays on the Machine for diagnostics (fault messages
// name the source opcode, not the decoded class).

// dClass is a dense pre-decoded instruction class.
type dClass uint8

const (
	dNOP dClass = iota
	dADD
	dSUB
	dMUL
	dDIV
	dMOD
	dAND
	dOR
	dXOR
	dSHL
	dSHR
	dSLT
	dADDI
	dANDI
	dORI
	dXORI
	dSHLI
	dSHRI
	dSLTI
	dMOVI
	// dSCAN and dSCANS are a plain and a checked load that head a scan loop
	// (markScanLoops); the width flag tells the two shapes apart.
	dSCAN
	dLD // plain load; width via dfWord
	dSCANS
	dLDS // COW-checked load
	dST  // plain store
	dSTS // COW-checked store
	// dSPIN is a BEQ that heads a counted spin loop (markSpinLoops).
	dSPIN
	dBEQ
	dBNE
	dBLT
	dBGE
	dJMP // direct jump; dfLink covers CALL
	dJR  // register-indirect jump; dfLink covers CALLR, RET pre-resolves Rs1=RA
	dJRH // handler-mediated indirect; dfLink covers CALLRH, RETH pre-resolves Rs1=RA
	dJTR
	dSYSCALL
	dILLEGAL
)

// dInstr flag bits.
const (
	dfLink    byte = 1 << iota // write RA before transferring control
	dfWord                     // 8-byte memory access (unset: 1 byte)
	dfCheckSP                  // run the SP-discipline check after this instruction
)

// dInstr is one pre-decoded instruction: 24 bytes, everything the hot loop
// needs in one cache-line-friendly slot.
type dInstr struct {
	class        dClass
	rd, rs1, rs2 uint8
	flags        byte
	imm          int64
	cost         int64
}

// decodeProgram flattens text under the given cost model. Opcodes that
// Program.Validate would reject decode to dILLEGAL and fault at execution,
// matching the switch interpreter's default case.
func decodeProgram(text []Instr, cost CostModel) []dInstr {
	dec := make([]dInstr, len(text))
	for i, ins := range text {
		d := &dec[i]
		d.rd, d.rs1, d.rs2, d.imm = ins.Rd, ins.Rs1, ins.Rs2, ins.Imm
		d.cost = cost.Default
		switch ins.Op {
		case NOP:
			d.class = dNOP
		case ADD:
			d.class = dADD
		case SUB:
			d.class = dSUB
		case MUL:
			d.class = dMUL
			d.cost = cost.Mul
		case DIV:
			d.class = dDIV
			d.cost = cost.Div
		case MOD:
			d.class = dMOD
			d.cost = cost.Div
		case AND:
			d.class = dAND
		case OR:
			d.class = dOR
		case XOR:
			d.class = dXOR
		case SHL:
			d.class = dSHL
		case SHR:
			d.class = dSHR
		case SLT:
			d.class = dSLT
		case ADDI:
			d.class = dADDI
		case ANDI:
			d.class = dANDI
		case ORI:
			d.class = dORI
		case XORI:
			d.class = dXORI
		case SHLI:
			d.class = dSHLI
		case SHRI:
			d.class = dSHRI
		case SLTI:
			d.class = dSLTI
		case MOVI:
			d.class = dMOVI
		case LDB:
			d.class = dLD
		case LDW:
			d.class = dLD
			d.flags |= dfWord
		case LDBS:
			d.class = dLDS
			d.cost += cost.LoadCheck
		case LDWS:
			d.class = dLDS
			d.flags |= dfWord
			d.cost += cost.LoadCheck
		case STB:
			d.class = dST
		case STW:
			d.class = dST
			d.flags |= dfWord
		case STBS:
			d.class = dSTS
			d.cost += cost.StoreCheck
		case STWS:
			d.class = dSTS
			d.flags |= dfWord
			d.cost += cost.StoreCheck
		case BEQ:
			d.class = dBEQ
		case BNE:
			d.class = dBNE
		case BLT:
			d.class = dBLT
		case BGE:
			d.class = dBGE
		case JMP:
			d.class = dJMP
		case CALL:
			d.class = dJMP
			d.flags |= dfLink
		case JR:
			d.class = dJR
		case CALLR:
			d.class = dJR
			d.flags |= dfLink
		case RET:
			d.class = dJR
			d.rs1 = RA
		case JRH:
			d.class = dJRH
			d.cost += cost.Handler
		case CALLRH:
			d.class = dJRH
			d.flags |= dfLink
			d.cost += cost.Handler
		case RETH:
			d.class = dJRH
			d.rs1 = RA
			d.cost += cost.Handler
		case JTR:
			d.class = dJTR
			d.cost += cost.JumpTable
		case SYSCALL:
			d.class = dSYSCALL
			d.cost = cost.Syscall
		default:
			d.class = dILLEGAL
		}
		if ins.Rd == SP && ins.Op != NOP && !ins.Op.IsStore() {
			d.flags |= dfCheckSP
		}
	}
	markSpinLoops(dec)
	markScanLoops(dec)
	return dec
}

// spinLen is the instruction count of one iteration of a counted spin loop.
const spinLen = 3

// markSpinLoops reclassifies as dSPIN the header of every pure counted loop
//
//	head: beq  rX, r0, exit
//	      addi rX, rX, -1
//	      jmp  head
//
// the shape trace.Source emits for think time, in original and shadow text
// alike (the transformer copies all three instructions verbatim and rebases
// the jump). An iteration changes nothing but rX, the instruction count and
// the clock, so Run can retire k of them at once; what it charges for them it
// reads from these same decoded entries. Everything else stays a plain BEQ:
// rX = r0 never iterates, rX = SP carries the stack-discipline check, a body
// of any other length or a linking jump has effects the closed form does not
// model, and a non-positive cost has no budget arithmetic.
func markSpinLoops(dec []dInstr) {
	for i := 0; i+spinLen <= len(dec); i++ {
		head, body, back := &dec[i], &dec[i+1], &dec[i+2]
		x := head.rs1
		if head.class == dBEQ && head.rs2 == R0 && x != R0 && x != SP &&
			body.class == dADDI && body.rd == x && body.rs1 == x && body.imm == -1 &&
			back.class == dJMP && back.flags&dfLink == 0 && back.imm == int64(i) &&
			head.cost > 0 && body.cost > 0 && back.cost > 0 {
			head.class = dSPIN
		}
	}
}

// scanLen is the instruction count of one loop-back iteration of a scan loop.
const scanLen = 4

// markScanLoops reclassifies as dSCAN (plain load) or dSCANS (checked load)
// the header of every loop of the two memory-scan shapes the benchmark
// applications spend almost all of their instructions in:
//
//	word sum:  head: ldw  V, o(P)        byte scan:  head: ldb  A, o(P)
//	                 add  S, S, V                          bne  A, K, L
//	                 addi P, P, 8                          ...
//	                 blt  P, E, head                    L: addi P, P, 1
//	                                                       blt  P, E, head
//
// Gnuld's and XDataSlice's checksums are the first, Agrep's hunt for its
// pattern's first byte the second; the transformer copies them verbatim with
// the load made checked, so the shadow copies pass the same test. An iteration
// that loops back changes P, S and V (or A), the load and instruction counts,
// the pages touched and the clock, and nothing else, so Run can retire k of
// them at once (Machine.scan); what it charges for them it reads from these
// same decoded entries. Everything else stays a plain load: V (A), S, P and E
// must be different registers and none of them r0 or SP, K must differ from
// A, P and E, the stride must be the load's width, no instruction of the loop
// may carry the stack-discipline check, and every cost must be positive.
func markScanLoops(dec []dInstr) {
	for i := range dec {
		if !isScanHead(dec, int64(i)) {
			continue
		}
		if dec[i].class == dLD {
			dec[i].class = dSCAN
		} else {
			dec[i].class = dSCANS
		}
	}
}

// isScanHead reports whether dec[i] is a load that heads one of
// markScanLoops' two shapes.
func isScanHead(dec []dInstr, i int64) bool {
	n := int64(len(dec))
	if i+1 >= n || dec[i].class != dLD && dec[i].class != dLDS {
		return false
	}
	ld, test := &dec[i], &dec[i+1]
	v, p := ld.rd, ld.rs1
	at, step := i+2, int64(8) // the word sum's addi follows its add
	if ld.flags&dfWord != 0 {
		if test.class != dADD || test.rs1 != test.rd || test.rs2 != v {
			return false
		}
	} else {
		at, step = test.imm, 1 // the byte scan's is where bne goes
		if test.class != dBNE || test.rs1 != v || at < 0 {
			return false
		}
	}
	if at+1 >= n {
		return false
	}
	inc, back := &dec[at], &dec[at+1]
	if inc.class != dADDI || inc.rd != p || inc.rs1 != p || inc.imm != step ||
		back.class != dBLT || back.rs1 != p || back.imm != i {
		return false
	}
	for _, d := range [scanLen]*dInstr{ld, test, inc, back} {
		if d.flags&dfCheckSP != 0 || d.cost <= 0 {
			return false
		}
	}
	e := back.rs2
	if step == 8 {
		return distinctGPRs(v, test.rd, p, e)
	}
	k := test.rs2
	return distinctGPRs(v, p, e) && k != v && k != p && k != e
}

// distinctGPRs reports whether regs are pairwise different and none of them
// is r0 or SP.
func distinctGPRs(regs ...uint8) bool {
	for i, r := range regs {
		if r == R0 || r == SP {
			return false
		}
		for _, q := range regs[:i] {
			if q == r {
				return false
			}
		}
	}
	return true
}
