package analysis

import (
	"fmt"

	"spechint/internal/vm"
)

// The value-range pass: a forward interval dataflow over the CFG, plugged
// into the generic solver (solveForwardE). Each register carries a signed
// interval [Lo, Hi] with independent ±∞ flags; the in-effect file position is
// tracked the same way, so every read site gets an offset bound. Branch
// conditions refine intervals per edge (the XDataSlice header sanity checks
// are what bound its block offsets), and per-block join counting triggers
// widening so cyclic graphs terminate.

// satCap bounds finite interval arithmetic; results beyond it widen to ∞.
const satCap = int64(1) << 62

// Interval is a signed value range [Lo, Hi]; LoInf/HiInf select -∞/+∞ for
// the respective bound (the bound field is then ignored).
type Interval struct {
	Lo, Hi       int64
	LoInf, HiInf bool
}

// top is the unconstrained interval.
func top() Interval { return Interval{LoInf: true, HiInf: true} }

// point is the singleton interval [k, k].
func point(k int64) Interval { return Interval{Lo: k, Hi: k} }

// span is the finite interval [lo, hi].
func span(lo, hi int64) Interval { return Interval{Lo: lo, Hi: hi} }

// finite reports whether both bounds are finite.
func (iv Interval) finite() bool { return !iv.LoInf && !iv.HiInf }

// constant reports the single value of a point interval.
func (iv Interval) constant() (int64, bool) {
	if iv.finite() && iv.Lo == iv.Hi {
		return iv.Lo, true
	}
	return 0, false
}

func (iv Interval) String() string {
	lo, hi := fmt.Sprint(iv.Lo), fmt.Sprint(iv.Hi)
	if iv.LoInf {
		lo = "-inf"
	}
	if iv.HiInf {
		hi = "+inf"
	}
	return "[" + lo + "," + hi + "]"
}

// norm canonicalizes an interval: an infinite bound zeroes its ignored
// finite field, so struct equality (the solver's change detector) never
// distinguishes two representations of the same interval.
func (iv Interval) norm() Interval {
	if iv.LoInf {
		iv.Lo = 0
	}
	if iv.HiInf {
		iv.Hi = 0
	}
	return iv
}

// join is the interval union hull.
func (iv Interval) join(o Interval) Interval {
	r := iv
	if o.LoInf || (!r.LoInf && o.Lo < r.Lo) {
		r.LoInf, r.Lo = o.LoInf, o.Lo
	}
	if o.HiInf || (!r.HiInf && o.Hi > r.Hi) {
		r.HiInf, r.Hi = o.HiInf, o.Hi
	}
	return r.norm()
}

// meet intersects two intervals; an empty result collapses to the first
// operand (refinement is advisory: contradictory branch facts mean the edge
// is dynamically dead, and keeping the old state stays sound).
func (iv Interval) meet(o Interval) Interval {
	r := iv
	if !o.LoInf && (r.LoInf || o.Lo > r.Lo) {
		r.LoInf, r.Lo = false, o.Lo
	}
	if !o.HiInf && (r.HiInf || o.Hi < r.Hi) {
		r.HiInf, r.Hi = false, o.Hi
	}
	if r.finite() && r.Lo > r.Hi {
		return iv.norm()
	}
	return r.norm()
}

func satAdd(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) || s > satCap || s < -satCap {
		return 0, false
	}
	return s, true
}

func satMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a || p > satCap || p < -satCap {
		return 0, false
	}
	return p, true
}

func itvAdd(a, b Interval) Interval {
	r := Interval{LoInf: a.LoInf || b.LoInf, HiInf: a.HiInf || b.HiInf}
	if !r.LoInf {
		if v, ok := satAdd(a.Lo, b.Lo); ok {
			r.Lo = v
		} else {
			r.LoInf = true
		}
	}
	if !r.HiInf {
		if v, ok := satAdd(a.Hi, b.Hi); ok {
			r.Hi = v
		} else {
			r.HiInf = true
		}
	}
	return r
}

func itvNeg(a Interval) Interval {
	return Interval{Lo: -a.Hi, Hi: -a.Lo, LoInf: a.HiInf, HiInf: a.LoInf}.norm()
}

func itvSub(a, b Interval) Interval { return itvAdd(a, itvNeg(b)) }

func itvMul(a, b Interval) Interval {
	if !a.finite() || !b.finite() {
		// Only the simple scaling case keeps precision: finite × point.
		if k, ok := b.constant(); ok {
			return itvScale(a, k)
		}
		if k, ok := a.constant(); ok {
			return itvScale(b, k)
		}
		return top()
	}
	lo, hi := int64(0), int64(0)
	first := true
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, y := range [2]int64{b.Lo, b.Hi} {
			p, ok := satMul(x, y)
			if !ok {
				return top()
			}
			if first || p < lo {
				lo = p
			}
			if first || p > hi {
				hi = p
			}
			first = false
		}
	}
	return span(lo, hi)
}

func itvScale(a Interval, k int64) Interval {
	if k == 0 {
		return point(0)
	}
	r := Interval{}
	lo, okLo := satMul(a.Lo, k)
	hi, okHi := satMul(a.Hi, k)
	if k < 0 {
		lo, hi = hi, lo
		okLo, okHi = okHi, okLo
		a.LoInf, a.HiInf = a.HiInf, a.LoInf
	}
	r.Lo, r.LoInf = lo, a.LoInf || !okLo
	r.Hi, r.HiInf = hi, a.HiInf || !okHi
	return r.norm()
}

// itvALU interprets one ALU op over intervals. y is the second operand (the
// immediate is passed as a point interval).
func itvALU(op vm.Op, x, y Interval) Interval {
	// Exact fold when both are single points.
	if xk, ok := x.constant(); ok {
		if yk, ok := y.constant(); ok {
			if v, ok := constFold(op, xk, yk); ok {
				return point(v)
			}
		}
	}
	switch op {
	case vm.ADD, vm.ADDI:
		return itvAdd(x, y)
	case vm.SUB:
		return itvSub(x, y)
	case vm.MUL:
		return itvMul(x, y)
	case vm.SHL, vm.SHLI:
		if k, ok := y.constant(); ok && k >= 0 && k < 62 {
			return itvScale(x, int64(1)<<uint(k))
		}
		return top()
	case vm.SHR, vm.SHRI:
		if k, ok := y.constant(); ok && k >= 0 && k < 63 && !x.LoInf && x.Lo >= 0 {
			if x.HiInf {
				return Interval{Lo: x.Lo >> uint(k), HiInf: true}
			}
			return span(x.Lo>>uint(k), x.Hi>>uint(k))
		}
		return top()
	case vm.AND, vm.ANDI:
		// x & m with x ≥ 0 clears bits: the result stays within [0, x.Hi].
		// With a non-negative mask it is additionally ≤ m.
		if !x.LoInf && x.Lo >= 0 {
			r := Interval{Lo: 0, Hi: x.Hi, HiInf: x.HiInf}
			if m, ok := y.constant(); ok && m >= 0 && (!r.HiInf && m < r.Hi || r.HiInf) {
				r.Hi, r.HiInf = m, false
			}
			return r.norm()
		}
		return top()
	case vm.MOD:
		if m, ok := y.constant(); ok && m > 0 {
			if !x.LoInf && x.Lo >= 0 {
				return span(0, m-1)
			}
			return span(-(m - 1), m-1)
		}
		return top()
	case vm.DIV:
		if m, ok := y.constant(); ok && m > 0 && x.finite() {
			return span(x.Lo/m, x.Hi/m)
		}
		return top()
	case vm.SLT, vm.SLTI:
		return span(0, 1)
	default: // OR, XOR and anything else: no useful bound
		return top()
	}
}

// rangeState is the per-program-point abstract state.
type rangeState struct {
	regs [vm.NumRegs]Interval
	fpos Interval // in-effect file position of the current stream
}

func (s *rangeState) clone() *rangeState { c := *s; return &c }

// LoadOracle resolves a load instruction to a value interval: the caller
// (the synthesizer) knows which data regions stay clean and how strided
// cursors walk them. Returning ok=false means "no bound".
type LoadOracle func(pc int64, ins vm.Instr) (Interval, bool)

// Ranges is the solved value-range analysis.
type Ranges struct {
	g      *CFG
	oracle LoadOracle
	in     []*rangeState

	// Sites maps each read-syscall PC to the joined file-position interval
	// observed at the call, over all abstract visits.
	Sites map[int64]Interval
}

// widenAfter is how many joins a block absorbs before unstable bounds widen
// to ±∞.
const widenAfter = 4

// solveRanges runs the interval fixpoint. oracle may be nil (loads then have
// no bound).
func solveRanges(g *CFG, oracle LoadOracle) *Ranges {
	ra := &Ranges{g: g, oracle: oracle, Sites: make(map[int64]Interval)}
	joins := make([]int, len(g.Blocks))
	// Widening applies only at cycle heads (targets of DFS retreating edges):
	// every cycle contains one, which bounds the ascent, while blocks outside
	// the widening set keep their branch-refined bounds — a loop body's
	// refined counter must not be re-widened just because its bound is still
	// climbing toward the refinement limit.
	widenAt := retreatTargets(g)

	boundary := func() *rangeState {
		s := &rangeState{}
		// Registers start zeroed; SP is set by the machine, not the text.
		s.regs[vm.SP] = top()
		s.fpos = top()
		return s
	}
	join := func(block int, dst, src *rangeState) bool {
		joins[block]++
		widen := widenAt[block] && joins[block] > widenAfter
		changed := false
		merge := func(d *Interval, s Interval) {
			j := d.join(s)
			if j != *d {
				if widen {
					// Widen only the bounds that are still moving.
					if j.Lo != d.Lo || j.LoInf != d.LoInf {
						j.LoInf = true
					}
					if j.Hi != d.Hi || j.HiInf != d.HiInf {
						j.HiInf = true
					}
				}
				*d = j.norm()
				changed = true
			}
		}
		for i := range dst.regs {
			merge(&dst.regs[i], src.regs[i])
		}
		merge(&dst.fpos, src.fpos)
		return changed
	}
	ra.in = solveForwardE(g, boundary,
		(*rangeState).clone,
		join,
		ra.refineEdge,
		func(block int, s *rangeState) *rangeState {
			b := g.Blocks[block]
			for pc := b.Start; pc < b.End; pc++ {
				ra.transfer(s, pc, g.Prog.Text[pc])
			}
			return s
		})
	return ra
}

// retreatTargets marks every block that is the target of a retreating edge
// in a DFS from the entry (over both successor and direct-call edges, which
// both propagate state). Every cycle in the flow relation contains at least
// one such block.
func retreatTargets(g *CFG) []bool {
	target := make([]bool, len(g.Blocks))
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, len(g.Blocks))
	edges := func(b int) []int {
		out := append([]int(nil), g.Blocks[b].Succs...)
		for _, t := range g.Blocks[b].CallsTo {
			if cb := g.blockOf(t); cb >= 0 {
				out = append(out, cb)
			}
		}
		return out
	}
	// Iterative DFS keeping an explicit edge cursor per frame.
	type frame struct {
		block int
		succs []int
		next  int
	}
	var stack []frame
	push := func(b int) {
		color[b] = gray
		stack = append(stack, frame{block: b, succs: edges(b)})
	}
	push(g.Entry)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next >= len(f.succs) {
			color[f.block] = black
			stack = stack[:len(stack)-1]
			continue
		}
		s := f.succs[f.next]
		f.next++
		switch color[s] {
		case white:
			push(s)
		case gray:
			target[s] = true
		}
	}
	return target
}

func (ra *Ranges) val(s *rangeState, r uint8) Interval {
	if r == vm.R0 {
		return point(0)
	}
	return s.regs[r]
}

func (ra *Ranges) set(s *rangeState, r uint8, v Interval) {
	if r != vm.R0 {
		s.regs[r] = v
	}
}

func (ra *Ranges) transfer(s *rangeState, pc int64, ins vm.Instr) {
	switch {
	case ins.Op >= vm.ADD && ins.Op <= vm.SLT:
		ra.set(s, ins.Rd, itvALU(ins.Op, ra.val(s, ins.Rs1), ra.val(s, ins.Rs2)))

	case ins.Op >= vm.ADDI && ins.Op <= vm.SLTI:
		ra.set(s, ins.Rd, itvALU(ins.Op, ra.val(s, ins.Rs1), point(ins.Imm)))

	case ins.Op == vm.MOVI:
		ra.set(s, ins.Rd, point(ins.Imm))

	case ins.Op.IsLoad():
		v := top()
		if ra.oracle != nil {
			if iv, ok := ra.oracle(pc, ins); ok {
				v = iv
			}
		}
		if ins.Op == vm.LDB || ins.Op == vm.LDBS {
			v = v.meet(span(0, 255)) // byte loads are unsigned
		}
		ra.set(s, ins.Rd, v)

	case ins.Op.IsCall():
		ra.set(s, vm.RA, point(pc+1))

	case ins.Op == vm.SYSCALL:
		switch ins.Imm {
		case vm.SysOpen:
			s.fpos = point(0)
			ra.set(s, vm.R1, top())
		case vm.SysSeek:
			s.fpos = ra.val(s, vm.R2)
			ra.set(s, vm.R1, top())
		case vm.SysRead:
			iv := s.fpos
			if prev, ok := ra.Sites[pc]; ok {
				iv = prev.join(iv)
			}
			ra.Sites[pc] = iv
			// The position advances by at most the requested length.
			n := ra.val(s, vm.R3)
			adv := Interval{Lo: 0, Hi: n.Hi, HiInf: n.HiInf}
			if !adv.HiInf && adv.Hi < 0 {
				adv.Hi = 0
			}
			s.fpos = itvAdd(s.fpos, adv)
			ra.set(s, vm.R1, top())
		case vm.SysClose:
			s.fpos = top()
			ra.set(s, vm.R1, top())
		default:
			ra.set(s, vm.R1, top())
		}
	}
}

// refineEdge narrows the state along a conditional-branch edge using the
// branch predicate (or its negation on the fall-through edge).
func (ra *Ranges) refineEdge(from, to int, s *rangeState) *rangeState {
	b := ra.g.Blocks[from]
	ins := ra.g.Prog.Text[b.End-1]
	if !ins.Op.IsBranch() {
		return s
	}
	taken := ra.g.blockOf(ins.Imm)
	fall := ra.g.blockOf(b.End)
	if taken == fall {
		return s // both edges reach the same block: no fact holds
	}
	var onTaken bool
	switch to {
	case taken:
		onTaken = true
	case fall:
		onTaken = false
	default:
		return s
	}

	x, y := ra.val(s, ins.Rs1), ra.val(s, ins.Rs2)
	setPair := func(nx, ny Interval) {
		ra.set(s, ins.Rs1, x.meet(nx))
		ra.set(s, ins.Rs2, y.meet(ny))
	}
	// Predicate that holds on this edge.
	op := ins.Op
	if !onTaken {
		switch op { // negate
		case vm.BEQ:
			op = vm.BNE
		case vm.BNE:
			op = vm.BEQ
		case vm.BLT:
			op = vm.BGE
		case vm.BGE:
			op = vm.BLT
		}
	}
	switch op {
	case vm.BEQ: // x == y: both collapse to the intersection
		m := x.meet(y)
		setPair(m, m)
	case vm.BNE: // x != y: trims only a point endpoint
		if k, ok := y.constant(); ok {
			setPair(trimNE(x, k), y)
		} else if k, ok := x.constant(); ok {
			setPair(x, trimNE(y, k))
		}
	case vm.BLT: // x < y
		setPair(
			Interval{LoInf: true, Hi: y.Hi - 1, HiInf: y.HiInf},
			Interval{Lo: x.Lo + 1, LoInf: x.LoInf, HiInf: true})
	case vm.BGE: // x >= y
		setPair(
			Interval{Lo: y.Lo, LoInf: y.LoInf, HiInf: true},
			Interval{LoInf: true, Hi: x.Hi, HiInf: x.HiInf})
	}
	return s
}

// trimNE removes k from an interval when it sits on a finite endpoint.
func trimNE(iv Interval, k int64) Interval {
	if !iv.LoInf && iv.Lo == k && !(iv.finite() && iv.Lo == iv.Hi) {
		iv.Lo++
	}
	if !iv.HiInf && iv.Hi == k && !(iv.finite() && iv.Lo == iv.Hi) {
		iv.Hi--
	}
	return iv
}

// siteBound returns the file-position interval observed at a read site.
func (ra *Ranges) siteBound(pc int64) (Interval, bool) {
	iv, ok := ra.Sites[pc]
	return iv, ok
}
