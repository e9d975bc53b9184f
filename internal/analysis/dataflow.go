package analysis

import (
	"sort"

	"spechint/internal/vm"
)

// The dataflow framework: a generic forward worklist solver over CFG blocks,
// plus the classic reaching-definitions analysis built on it. The taint
// analysis (taint.go) uses the same solver with a richer state.

// solveForward runs a forward fixpoint: for each block, the entry state is
// the join of its predecessors' exit states (the CFG entry block starts from
// boundary), and transfer produces the exit state. join must return true
// when dst changed; transfer must not retain s. It returns the entry state
// of every block.
func solveForward[S any](g *CFG, boundary func() S, clone func(S) S,
	join func(dst S, src S) bool, transfer func(block int, s S) S) []S {
	return solveForwardE(g, boundary, clone,
		func(_ int, dst S, src S) bool { return join(dst, src) },
		nil, transfer)
}

// solveForwardE is the general form of the forward solver. join receives the
// destination block index, letting analyses keep per-join-point bookkeeping
// (the value-range pass counts joins per block to trigger widening). edge,
// when non-nil, refines the propagated state per successor edge before the
// join — it receives a private clone it may mutate and return (branch
// condition refinement lives here). Call edges never refine: the callee sees
// the caller's exit state unchanged.
func solveForwardE[S any](g *CFG, boundary func() S, clone func(S) S,
	join func(block int, dst S, src S) bool,
	edge func(from, to int, s S) S,
	transfer func(block int, s S) S) []S {

	in := make([]S, len(g.Blocks))
	out := make([]S, len(g.Blocks))
	have := make([]bool, len(g.Blocks))

	work := []int{g.Entry}
	queued := make([]bool, len(g.Blocks))
	queued[g.Entry] = true
	in[g.Entry] = boundary()
	have[g.Entry] = true

	// flow merges src into block s, returning whether s's entry state grew.
	flow := func(s int, src S) bool {
		if !have[s] {
			in[s] = clone(src)
			have[s] = true
			return true
		}
		return join(s, in[s], src)
	}

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false

		out[b] = transfer(b, clone(in[b]))
		for _, s := range g.Blocks[b].Succs {
			src := out[b]
			if edge != nil {
				src = edge(b, s, clone(out[b]))
			}
			if flow(s, src) && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
		// Direct calls: flow into the callee too (context-insensitive; the
		// fall-through edge separately models the call returning).
		for _, t := range g.Blocks[b].CallsTo {
			cb := g.blockOf(t)
			if cb < 0 {
				continue
			}
			if flow(cb, out[b]) && !queued[cb] {
				queued[cb] = true
				work = append(work, cb)
			}
		}
	}
	return in
}

// Def is one register definition site.
type Def struct {
	PC  int64
	Reg uint8
}

// ReachingDefs holds the solved reaching-definitions problem: for any PC and
// register, which definition sites may have produced the value observed
// there.
type ReachingDefs struct {
	g    *CFG
	defs []Def     // def index -> site
	in   []defBits // per block: defs reaching block entry
}

type defBits []uint64

func newDefBits(n int) defBits { return make(defBits, (n+63)/64) }
func (b defBits) set(i int)    { b[i/64] |= 1 << (i % 64) }
func (b defBits) clear(i int)  { b[i/64] &^= 1 << (i % 64) }
func (b defBits) get(i int) bool {
	return b[i/64]&(1<<(i%64)) != 0
}
func (b defBits) or(o defBits) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}
func (b defBits) clone() defBits { return append(defBits(nil), b...) }

// solveReachingDefs computes reaching definitions over the graph.
func solveReachingDefs(g *CFG) *ReachingDefs {
	rd := &ReachingDefs{g: g}
	defAt := make(map[int64]int) // pc -> def index (each pc defines <=1 reg)
	for pc, ins := range g.Prog.Text {
		if reg, ok := ins.WritesReg(); ok {
			defAt[int64(pc)] = len(rd.defs)
			rd.defs = append(rd.defs, Def{PC: int64(pc), Reg: reg})
		}
	}
	nd := len(rd.defs)

	// defsOfReg[r] = all def indices writing register r, for the kill sets.
	var defsOfReg [vm.NumRegs][]int
	for i, d := range rd.defs {
		defsOfReg[d.Reg] = append(defsOfReg[d.Reg], i)
	}

	transfer := func(block int, s defBits) defBits {
		b := g.Blocks[block]
		for pc := b.Start; pc < b.End; pc++ {
			di, ok := defAt[pc]
			if !ok {
				continue
			}
			for _, k := range defsOfReg[rd.defs[di].Reg] {
				s.clear(k)
			}
			s.set(di)
		}
		return s
	}

	rd.in = solveForward(g,
		func() defBits { return newDefBits(nd) },
		defBits.clone,
		func(dst, src defBits) bool { return dst.or(src) },
		transfer)
	for i := range rd.in {
		if rd.in[i] == nil {
			rd.in[i] = newDefBits(nd) // unreachable block
		}
	}
	return rd
}

// defsOf returns the definition sites of reg that reach pc (before the
// instruction at pc executes), in ascending PC order.
func (rd *ReachingDefs) defsOf(pc int64, reg uint8) []int64 {
	if reg == vm.R0 {
		return nil // the zero register has no definitions
	}
	block := rd.g.blockOf(pc)
	if block < 0 {
		return nil
	}
	live := rd.in[block].clone()
	b := rd.g.Blocks[block]
	for p := b.Start; p < b.End && p < pc; p++ {
		r, ok := rd.g.Prog.Text[p].WritesReg()
		if !ok {
			continue
		}
		for i, d := range rd.defs {
			switch {
			case d.PC == p && d.Reg == r:
				live.set(i)
			case d.Reg == r:
				live.clear(i)
			}
		}
	}
	var out []int64
	for i, d := range rd.defs {
		if d.Reg == reg && live.get(i) {
			out = append(out, d.PC)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
