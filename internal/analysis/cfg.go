package analysis

import (
	"fmt"
	"sort"

	"spechint/internal/vm"
)

// Block is one basic block: the half-open instruction range [Start, End).
// The last instruction decides the block's successors.
type Block struct {
	Start, End int64

	Succs []int // successor block indices, deduplicated, sorted
	Preds []int // predecessor block indices

	// CallsTo lists direct-call target PCs made by this block (a call also
	// has a fall-through successor: the callee returns).
	CallsTo []int64

	// IndirectExit marks a block ending in an indirect transfer whose
	// targets could not be resolved statically (jr/callr through an
	// unrecognized value, or the shadow handler variants).
	IndirectExit bool

	// Returns marks a block ending in ret/ret.h: control leaves the
	// function, so the block has no intra-procedural successors.
	Returns bool
}

// CFG is the control-flow graph of a program's text section.
type CFG struct {
	Prog   *vm.Program
	Blocks []Block
	Entry  int // block index of the program entry

	pcBlock []int // instruction index -> containing block
}

// CallSite is one direct call edge.
type CallSite struct {
	PC     int64 // address of the call instruction
	Target int64 // callee entry
}

// buildCFG partitions the text into basic blocks and wires the edges.
// Jump-table edges come from tables registered in the program: a rewritten
// jtr names its table directly; an original-text jr is matched against the
// same load idiom SpecHint recognizes (cfg.JumpTableLookback). Programs with
// out-of-range targets (e.g. deliberately corrupted ones under test) still
// build; the bad edges are simply dropped.
func buildCFG(p *vm.Program, cfg Config) *CFG {
	if cfg.JumpTableLookback <= 0 {
		cfg.JumpTableLookback = 1
	}
	n := int64(len(p.Text))
	inText := func(pc int64) bool { return pc >= 0 && pc < n }

	// Pass 1: leaders. Entry, every transfer target, every instruction after
	// a control transfer or a terminating syscall, and every text symbol
	// (function entries make block boundaries readable).
	leader := make([]bool, n)
	mark := func(pc int64) {
		if inText(pc) {
			leader[pc] = true
		}
	}
	if n > 0 {
		leader[0] = true
	}
	mark(p.Entry)
	for _, addr := range p.Symbols {
		mark(addr)
	}
	tableTargets := func(ti int) []int64 {
		if ti < 0 || ti >= len(p.JumpTables) {
			return nil
		}
		jt := p.JumpTables[ti]
		if jt.Format != vm.JTAbsolute {
			return nil
		}
		var out []int64
		for e := int64(0); e < jt.Len; e++ {
			off := jt.Addr + e*8
			if off+8 > int64(len(p.Data)) {
				continue
			}
			t := int64(0)
			for b := int64(0); b < 8; b++ {
				t |= int64(p.Data[off+b]) << (8 * b)
			}
			// In a transformed program the handling routine maps
			// original-text entries into the shadow at run time.
			if p.ShadowBase > 0 && t >= 0 && t < p.OrigTextLen {
				t += p.ShadowBase
			}
			out = append(out, t)
		}
		return out
	}
	for pc := int64(0); pc < n; pc++ {
		ins := p.Text[pc]
		switch {
		case ins.Op.IsBranch():
			mark(ins.Imm)
			mark(pc + 1)
		case ins.Op == vm.JMP:
			mark(ins.Imm)
			mark(pc + 1)
		case ins.Op == vm.CALL:
			mark(ins.Imm)
			mark(pc + 1)
		case ins.Op == vm.JTR:
			for _, t := range tableTargets(int(ins.Imm)) {
				mark(t)
			}
			mark(pc + 1)
		case ins.Op == vm.JR:
			if ti, ok := recognizeJumpTable(p, pc, ins.Rs1, cfg.JumpTableLookback); ok {
				for _, t := range tableTargets(ti) {
					mark(t)
				}
			}
			mark(pc + 1)
		case ins.Op.IsIndirect(): // callr, ret and the handler variants
			mark(pc + 1)
		case ins.Op == vm.SYSCALL && ins.Imm == vm.SysExit:
			mark(pc + 1)
		}
	}

	// Pass 2: blocks.
	g := &CFG{Prog: p, pcBlock: make([]int, n)}
	for pc := int64(0); pc < n; {
		end := pc + 1
		for end < n && !leader[end] {
			end++
		}
		for i := pc; i < end; i++ {
			g.pcBlock[i] = len(g.Blocks)
		}
		g.Blocks = append(g.Blocks, Block{Start: pc, End: end})
		pc = end
	}

	// Pass 3: edges.
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		last := p.Text[b.End-1]
		var succs []int64
		switch {
		case last.Op.IsBranch():
			succs = append(succs, last.Imm, b.End)
		case last.Op == vm.JMP:
			succs = append(succs, last.Imm)
		case last.Op == vm.CALL:
			b.CallsTo = append(b.CallsTo, last.Imm)
			succs = append(succs, b.End) // the callee returns here
		case last.Op == vm.JTR:
			succs = append(succs, tableTargets(int(last.Imm))...)
		case last.Op == vm.JR:
			if ti, ok := recognizeJumpTable(p, b.End-1, last.Rs1, cfg.JumpTableLookback); ok {
				succs = append(succs, tableTargets(ti)...)
			} else {
				b.IndirectExit = true
			}
		case last.Op == vm.JRH:
			b.IndirectExit = true
		case last.Op == vm.CALLR, last.Op == vm.CALLRH:
			b.IndirectExit = true // unknown callee
			succs = append(succs, b.End)
		case last.Op == vm.RET, last.Op == vm.RETH:
			b.Returns = true
		case last.Op == vm.SYSCALL && last.Imm == vm.SysExit:
			// Terminates the program: no successors.
		default:
			if b.End < n {
				succs = append(succs, b.End)
			}
		}
		seen := make(map[int]bool)
		for _, t := range succs {
			if !inText(t) {
				continue // corrupted or truncated target: drop the edge
			}
			sb := g.pcBlock[t]
			if !seen[sb] {
				seen[sb] = true
				b.Succs = append(b.Succs, sb)
			}
		}
		sort.Ints(b.Succs)
	}
	for bi := range g.Blocks {
		for _, s := range g.Blocks[bi].Succs {
			g.Blocks[s].Preds = append(g.Blocks[s].Preds, bi)
		}
	}
	if inText(p.Entry) {
		g.Entry = g.pcBlock[p.Entry]
	}
	return g
}

// recognizeJumpTable reports whether the indirect jump at pc consumes a value
// loaded from a registered absolute-format jump table within the lookback
// window — the same idiom spechint.Transform recognizes.
func recognizeJumpTable(p *vm.Program, pc int64, reg uint8, lookback int) (int, bool) {
	abs := make(map[int64]int)
	for i, jt := range p.JumpTables {
		if jt.Format == vm.JTAbsolute {
			abs[jt.Addr] = i
		}
	}
	lo := pc - int64(lookback)
	if lo < 0 {
		lo = 0
	}
	for j := pc - 1; j >= lo; j-- {
		ins := p.Text[j]
		if ins.Op == vm.LDW && ins.Rd == reg {
			if ti, ok := abs[ins.Imm]; ok {
				return ti, true
			}
			return 0, false
		}
		if rd, writes := ins.WritesReg(); writes && rd == reg {
			return 0, false
		}
	}
	return 0, false
}

// blockOf returns the index of the block containing pc, or -1.
func (g *CFG) blockOf(pc int64) int {
	if pc < 0 || pc >= int64(len(g.pcBlock)) {
		return -1
	}
	return g.pcBlock[pc]
}

// calls returns every direct call edge in the graph.
func (g *CFG) calls() []CallSite {
	var out []CallSite
	for _, b := range g.Blocks {
		for _, t := range b.CallsTo {
			out = append(out, CallSite{PC: b.End - 1, Target: t})
		}
	}
	return out
}

// reachable returns, per block, whether it is reachable from the program
// entry following successor and call edges.
func (g *CFG) reachable() []bool { return g.reachableFrom(g.Prog.Entry) }

// reachableFrom computes block reachability from the given starting PCs.
func (g *CFG) reachableFrom(pcs ...int64) []bool {
	seen := make([]bool, len(g.Blocks))
	var stack []int
	push := func(b int) {
		if b >= 0 && !seen[b] {
			seen[b] = true
			stack = append(stack, b)
		}
	}
	for _, pc := range pcs {
		push(g.blockOf(pc))
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Blocks[b].Succs {
			push(s)
		}
		for _, t := range g.Blocks[b].CallsTo {
			push(g.blockOf(t))
		}
	}
	return seen
}

// dominators computes the immediate dominator of every block reachable from
// the entry (Cooper-Harvey-Kennedy iterative algorithm). The entry block is
// its own idom; unreachable blocks get -1.
func (g *CFG) dominators() []int {
	idom := make([]int, len(g.Blocks))
	for i := range idom {
		idom[i] = -1
	}
	if len(g.Blocks) == 0 {
		return idom
	}

	// Reverse postorder over successor edges from the entry.
	order := make([]int, 0, len(g.Blocks))
	state := make([]uint8, len(g.Blocks)) // 0 new, 1 open, 2 done
	var dfs func(int)
	dfs = func(b int) {
		state[b] = 1
		for _, s := range g.Blocks[b].Succs {
			if state[s] == 0 {
				dfs(s)
			}
		}
		state[b] = 2
		order = append(order, b)
	}
	dfs(g.Entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoNum := make([]int, len(g.Blocks))
	for i, b := range order {
		rpoNum[b] = i
	}

	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}

	idom[g.Entry] = g.Entry
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == g.Entry {
				continue
			}
			newIdom := -1
			for _, pred := range g.Blocks[b].Preds {
				if idom[pred] == -1 {
					continue // predecessor not reached yet
				}
				if newIdom == -1 {
					newIdom = pred
				} else {
					newIdom = intersect(pred, newIdom)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// dominates reports whether block a dominates block b under idom (as
// returned by dominators).
func dominates(idom []int, a, b int) bool {
	if idom[b] == -1 {
		return false
	}
	for {
		if a == b {
			return true
		}
		if idom[b] == b || idom[b] == -1 {
			return false
		}
		b = idom[b]
	}
}

// summary is a one-paragraph description of the graph for reports.
func (g *CFG) summary() string {
	edges := 0
	indirect := 0
	for _, b := range g.Blocks {
		edges += len(b.Succs)
		if b.IndirectExit {
			indirect++
		}
	}
	reach := 0
	for _, r := range g.reachable() {
		if r {
			reach++
		}
	}
	return fmt.Sprintf("%d blocks, %d edges, %d direct calls, %d unresolved indirect exits, %d/%d blocks reachable from entry",
		len(g.Blocks), edges, len(g.calls()), indirect, reach, len(g.Blocks))
}
