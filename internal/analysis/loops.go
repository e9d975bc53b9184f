package analysis

import (
	"fmt"
	"sort"

	"spechint/internal/vm"
)

// Natural-loop detection and induction-variable recognition over the VM CFG.
// A back edge is an edge a→h where h dominates a; the natural loop of h is h
// plus every block that reaches a back-edge source without passing h. Loops
// sharing a header are merged. Irreducible control flow (a cycle entered
// other than through its dominating header) simply produces no natural loop
// for the offending cycle, which downstream passes treat as "nothing proved"
// — degraded precision, never unsoundness.

// Loop is one natural loop.
type Loop struct {
	Header int   // header block index
	Blocks []int // body block indices, sorted ascending, header included
	Tails  []int // back-edge source blocks (sorted)
	Exits  []LoopExit
	IVs    []IndVar

	inBody map[int]bool
}

// LoopExit is an edge leaving the loop body.
type LoopExit struct {
	Block int // in-loop block whose terminator leaves the loop
	To    int // out-of-loop target block
}

// IndVar is a basic induction variable: a register with exactly one in-loop
// definition, of the form `addi r, r, step`. Its value at the header on
// iteration i (0-based) is init + step·i, where init comes from the single
// out-of-loop reaching definition (resolved by the caller's evaluator).
type IndVar struct {
	Reg    uint8
	StepPC int64 // PC of the in-loop addi
	Step   int64
	InitPC int64 // PC of the out-of-loop init definition
}

// LoopInfo is the result of findLoops.
type LoopInfo struct {
	G     *CFG
	Idom  []int
	Loops []Loop // sorted by header block start PC

	inner []int // block index -> innermost containing loop index, or -1
}

// findLoops detects the natural loops of g and recognizes their basic
// induction variables.
func findLoops(g *CFG) *LoopInfo {
	li := &LoopInfo{G: g, Idom: g.dominators()}
	li.inner = make([]int, len(g.Blocks))
	for i := range li.inner {
		li.inner[i] = -1
	}

	// Back edges, grouped by header.
	tails := make(map[int][]int)
	var headers []int
	for bi, b := range g.Blocks {
		for _, s := range b.Succs {
			if dominates(li.Idom, s, bi) {
				if len(tails[s]) == 0 {
					headers = append(headers, s)
				}
				tails[s] = append(tails[s], bi)
			}
		}
	}
	sort.Ints(headers)

	for _, h := range headers {
		l := Loop{Header: h, inBody: map[int]bool{h: true}}
		l.Tails = append([]int(nil), tails[h]...)
		sort.Ints(l.Tails)
		// Body: backward reachability from the tails, stopping at the header.
		var stack []int
		for _, t := range l.Tails {
			if !l.inBody[t] {
				l.inBody[t] = true
				stack = append(stack, t)
			}
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range g.Blocks[b].Preds {
				if !l.inBody[p] {
					l.inBody[p] = true
					stack = append(stack, p)
				}
			}
		}
		for b := range l.inBody {
			l.Blocks = append(l.Blocks, b)
		}
		sort.Ints(l.Blocks)
		for _, b := range l.Blocks {
			for _, s := range g.Blocks[b].Succs {
				if !l.inBody[s] {
					l.Exits = append(l.Exits, LoopExit{Block: b, To: s})
				}
			}
		}
		sort.Slice(l.Exits, func(i, j int) bool {
			if l.Exits[i].Block != l.Exits[j].Block {
				return l.Exits[i].Block < l.Exits[j].Block
			}
			return l.Exits[i].To < l.Exits[j].To
		})
		li.Loops = append(li.Loops, l)
	}
	sort.Slice(li.Loops, func(i, j int) bool {
		return g.Blocks[li.Loops[i].Header].Start < g.Blocks[li.Loops[j].Header].Start
	})

	// Innermost-loop map: among loops containing a block, the one with the
	// smallest body wins (a nested loop's body is a strict subset).
	for i, l := range li.Loops {
		for _, b := range l.Blocks {
			if cur := li.inner[b]; cur == -1 || len(li.Loops[cur].Blocks) > len(l.Blocks) {
				li.inner[b] = i
			}
		}
	}

	rd := solveReachingDefs(g)
	for i := range li.Loops {
		li.findIVs(&li.Loops[i], rd)
	}
	return li
}

// findIVs recognizes the loop's basic induction variables.
func (li *LoopInfo) findIVs(l *Loop, rd *ReachingDefs) {
	g := li.G
	// Count in-loop definitions per register.
	type defSite struct {
		pc int64
		n  int
	}
	var defs [vm.NumRegs]defSite
	for _, b := range l.Blocks {
		blk := g.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			if r, ok := g.Prog.Text[pc].WritesReg(); ok {
				defs[r].n++
				defs[r].pc = pc
			}
		}
	}
	for r := range defs {
		if defs[r].n != 1 {
			continue
		}
		pc := defs[r].pc
		ins := g.Prog.Text[pc]
		if ins.Op != vm.ADDI || ins.Rd != ins.Rs1 || ins.Rd != uint8(r) || ins.Imm == 0 {
			continue
		}
		// The value flowing around the back edge must come from exactly this
		// step plus one out-of-loop init: at the step itself, the reaching
		// defs are {init, step}.
		reaching := rd.defsOf(pc, uint8(r))
		var initPC int64 = -1
		ok := true
		for _, d := range reaching {
			if d == pc {
				continue
			}
			if li.blockIn(l, g.blockOf(d)) {
				ok = false // another in-loop def reaches (shouldn't happen: n==1)
				break
			}
			if initPC != -1 {
				ok = false // multiple competing init defs
				break
			}
			initPC = d
		}
		if !ok || initPC == -1 {
			continue
		}
		l.IVs = append(l.IVs, IndVar{Reg: uint8(r), StepPC: pc, Step: ins.Imm, InitPC: initPC})
	}
	sort.Slice(l.IVs, func(i, j int) bool { return l.IVs[i].Reg < l.IVs[j].Reg })
}

func (li *LoopInfo) blockIn(l *Loop, b int) bool { return b >= 0 && l.inBody[b] }

// contains reports whether loop index l contains the block of pc.
func (li *LoopInfo) contains(l int, pc int64) bool {
	if l < 0 || l >= len(li.Loops) {
		return false
	}
	return li.blockIn(&li.Loops[l], li.G.blockOf(pc))
}

// iv returns loop l's induction variable for reg, if recognized.
func (l *Loop) iv(reg uint8) (IndVar, bool) {
	for _, iv := range l.IVs {
		if iv.Reg == reg {
			return iv, true
		}
	}
	return IndVar{}, false
}

// bodyReach computes intra-iteration reachability: the blocks reachable from
// `from` along body edges with back edges to the header removed, optionally
// avoiding one block (pass avoid=-1 for none) and skipping edges the caller
// prunes (prune may be nil). from itself is included unless avoided.
func (li *LoopInfo) bodyReach(l int, from, avoid int, prune func(from, to int) bool) map[int]bool {
	loop := &li.Loops[l]
	seen := make(map[int]bool)
	if from == avoid || !loop.inBody[from] {
		return seen
	}
	stack := []int{from}
	seen[from] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range li.G.Blocks[b].Succs {
			if s == loop.Header || !loop.inBody[s] || s == avoid || seen[s] {
				continue
			}
			if prune != nil && prune(b, s) {
				continue
			}
			seen[s] = true
			stack = append(stack, s)
		}
	}
	return seen
}

// tripCountWith derives the loop's exact trip count: the number of times the
// body runs, assuming the program does not abort. It requires a counted exit
// test in the header comparing an induction variable against a loop-invariant
// constant, and every *other* exit to target an abort-only region (a
// subgraph that performs no further I/O and only exits — Gnuld's `fail`
// label). constAt resolves a register to a constant at a PC (the caller's
// evaluator); ivInit resolves an induction variable's initial value.
func (li *LoopInfo) tripCountWith(l int,
	ivInit func(iv IndVar) (int64, bool),
	constAt func(pc int64, reg uint8) (int64, bool)) (int64, bool) {

	g := li.G
	loop := &li.Loops[l]
	hb := g.Blocks[loop.Header]
	branchPC := hb.End - 1
	ins := g.Prog.Text[branchPC]
	if !ins.Op.IsBranch() {
		return 0, false
	}
	takenBlock := g.blockOf(ins.Imm)
	fallBlock := g.blockOf(hb.End)
	takenExits := !loop.inBody[takenBlock]
	fallExits := fallBlock < 0 || !loop.inBody[fallBlock]
	if takenExits == fallExits {
		return 0, false // both stay or both leave: not a counted header test
	}

	// Every exit other than the header test must be abort-only.
	for _, e := range loop.Exits {
		if e.Block == loop.Header {
			continue
		}
		if !li.abortOnly(e.To) {
			return 0, false
		}
	}

	// One operand is an IV, the other a constant (at the header, i.e. before
	// the in-loop step executes this iteration).
	resolve := func(r uint8) (iv IndVar, isIV bool, k int64, isConst bool) {
		if r == vm.R0 {
			return IndVar{}, false, 0, true
		}
		if v, ok := loop.iv(r); ok {
			// The IV reads its header value only if the step has not run
			// yet: the step must not reach the header test intra-block.
			if g.blockOf(v.StepPC) != loop.Header || v.StepPC >= branchPC {
				return v, true, 0, false
			}
		}
		if c, ok := constAt(branchPC, r); ok {
			return IndVar{}, false, c, true
		}
		return IndVar{}, false, 0, false
	}
	iv1, isIV1, k1, isConst1 := resolve(ins.Rs1)
	iv2, isIV2, k2, isConst2 := resolve(ins.Rs2)

	var iv IndVar
	var bound int64
	var ivIsRs1 bool
	switch {
	case isIV1 && isConst2:
		iv, bound, ivIsRs1 = iv1, k2, true
	case isIV2 && isConst1:
		iv, bound, ivIsRs1 = iv2, k1, false
	default:
		return 0, false
	}
	init, ok := ivInit(iv)
	if !ok {
		return 0, false
	}

	// Exit predicate on the header value v = init + step·i, i = 0,1,2,...
	// The first i satisfying it is the trip count.
	exitWhen := func(v int64) bool {
		a, b := v, bound
		if !ivIsRs1 {
			a, b = bound, v
		}
		var taken bool
		switch ins.Op {
		case vm.BEQ:
			taken = a == b
		case vm.BNE:
			taken = a != b
		case vm.BLT:
			taken = a < b
		case vm.BGE:
			taken = a >= b
		}
		return taken == takenExits
	}
	return firstExit(init, iv.Step, exitWhen)
}

// firstExit finds the smallest i ≥ 0 with exit(init + step·i), by closed
// form where the predicate is monotone and by bounded search otherwise.
func firstExit(init, step int64, exit func(int64) bool) (int64, bool) {
	const searchCap = 1 << 20
	v := init
	for i := int64(0); i < searchCap; i++ {
		if exit(v) {
			return i, true
		}
		nv := v + step
		if (step > 0 && nv < v) || (step < 0 && nv > v) {
			return 0, false // overflow: diverges
		}
		v = nv
	}
	return 0, false
}

// abortOnly reports whether every path from block b is a failure exit: the
// subgraph reachable from b contains no open/close/read/seek/fstat/write/
// sbrk/hint syscalls, no indirect exits, no returns, and every exit
// provably reports failure (immediately preceded by `movi r1, K` with
// K < 0 — Gnuld's `fail` label). A normal early completion is NOT abort-only:
// it would silently shorten the iteration space the trip count promises.
// Diagnostic prints before the exit are allowed.
func (li *LoopInfo) abortOnly(b int) bool {
	g := li.G
	seen := map[int]bool{b: true}
	stack := []int{b}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		blk := g.Blocks[cur]
		if blk.IndirectExit || blk.Returns || len(blk.CallsTo) > 0 {
			return false
		}
		for pc := blk.Start; pc < blk.End; pc++ {
			ins := g.Prog.Text[pc]
			if ins.Op != vm.SYSCALL {
				continue
			}
			switch ins.Imm {
			case vm.SysPrint, vm.SysPrintInt:
			case vm.SysExit:
				prev := vm.Instr{}
				if pc > blk.Start {
					prev = g.Prog.Text[pc-1]
				}
				if prev.Op != vm.MOVI || prev.Rd != vm.R1 || prev.Imm >= 0 {
					return false // not provably a failure status
				}
			default:
				return false
			}
		}
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
		if len(seen) > 256 {
			return false // unexpectedly large: refuse to certify
		}
	}
	return true
}

// summary renders a one-line description per loop for reports.
func (li *LoopInfo) summary() string {
	if len(li.Loops) == 0 {
		return "no natural loops"
	}
	s := ""
	for i, l := range li.Loops {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("loop@%d(%d blocks, %d IVs)",
			li.G.Blocks[l.Header].Start, len(l.Blocks), len(l.IVs))
	}
	return s
}
