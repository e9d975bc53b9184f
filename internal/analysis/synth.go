package analysis

import (
	"fmt"
	"sort"
	"strings"

	"spechint/internal/asm"
	"spechint/internal/vm"
)

// The static hint synthesizer: the pipeline CFG → dominators/loops → value
// ranges → synthesis. Per read site it tries, in order:
//
//  1. proved — a closed-form access pattern: the descriptor traces to one
//     open whose path is a compile-time constant (or an affine walk over a
//     clean path table indexed by a counted loop), and the file position at
//     the read is statically sequential. The synthesizer then *enumerates*
//     the hint sequence the dynamic run will consume.
//  2. bounded — no closed form, but the value-range pass bounds the file
//     position at the site to a finite interval.
//  3. speculative-only — fall back to the taint-based hintability class
//     (taint.go): only runtime speculation can discover these accesses.
//
// Synthesis assumes the program completes normally (opens succeed, reads
// return their requested length) — the same assumption the emitted hints
// encode. The Verify pass audits it against dynamic run statistics, making
// the analysis self-auditing: a hint the dynamic run never consumed is a
// lint finding.

// Confidence ranks how strongly the static analysis stands behind a site.
type Confidence uint8

const (
	ConfSpecOnly Confidence = iota // only speculation can discover the pattern
	ConfBounded                    // offset interval is finite, no closed form
	ConfProved                     // closed-form pattern, hints enumerated
)

func (c Confidence) String() string {
	switch c {
	case ConfProved:
		return "proved"
	case ConfBounded:
		return "bounded"
	case ConfSpecOnly:
		return "speculative-only"
	}
	return "conf?"
}

// Prior is the static prior probability that a prefetch issued for this site
// turns out useful, consumed by the TIP cost-benefit depth bound: proved
// sites earn full-depth prefetching, bounded ones most of it, and
// speculative-only sites the same discount the dynamic accuracy model starts
// from.
func (c Confidence) Prior() float64 {
	switch c {
	case ConfProved:
		return 1.0
	case ConfBounded:
		return 0.75
	default:
		return 0.5
	}
}

// SynthHint is one concrete synthesized disclosure, in the order the dynamic
// run is expected to consume them.
type SynthHint struct {
	SitePC int64  // read site the hint serves
	Iter   int64  // iteration of the binding loop (0 outside loops)
	Path   string // file binding
	Off, N int64
	Conf   Confidence
}

// SynthSite is the per-read-site synthesis result.
type SynthSite struct {
	PC    int64
	Conf  Confidence
	Class AccessClass // taint-based fallback class (always computed)

	Template string // closed form, for proved sites
	Loop     int    // binding loop index into the report's LoopInfo, or -1
	Trips    int64  // enumerated iterations (1 outside loops)
	NumHints int

	Bound   Interval // file-position bound, for bounded sites
	Bounded bool
}

// SynthReport is the full synthesis output for one program.
type SynthReport struct {
	Prog  *vm.Program
	CFG   *CFG
	Loops *LoopInfo
	Sites []SynthSite // sorted by PC
	Hints []SynthHint // expected consumption order
}

// wholeFileLen is the disclosure length for sequential whole-file scans; the
// TIP client clamps a segment to the file's actual size.
const wholeFileLen = 0x40000000

const evalDepthMax = 24

// Synthesize runs the static hint-synthesis pipeline over an untransformed
// program.
func Synthesize(p *vm.Program) (*SynthReport, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.ShadowBase != 0 || p.OrigTextLen != 0 {
		return nil, fmt.Errorf("analysis: synthesize wants an untransformed program (got shadow at %d)", p.ShadowBase)
	}
	g := buildCFG(p)
	ta, _ := runTaint(g)
	li := findLoops(g)
	ev := &evaluator{p: p, g: g, li: li, rd: solveReachingDefs(g), ta: ta}
	sy := &synthesizer{
		g:      g,
		li:     li,
		ev:     ev,
		ranges: solveRanges(g, ev.rangeOracle()),
		pos:    solvePos(g, ev),
		trips:  make(map[int]tripResult),
	}

	r := &SynthReport{Prog: p, CFG: g, Loops: li}
	var pcs []int64
	for pc, st := range ta.sites {
		if st.set {
			pcs = append(pcs, pc)
		}
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })

	var emitters []emitter
	for _, pc := range pcs {
		site, em := sy.site(pc, ta.sites[pc])
		r.Sites = append(r.Sites, site)
		if em != nil {
			emitters = append(emitters, *em)
		}
	}
	r.Hints = orderHints(emitters)
	for i := range r.Sites {
		for _, h := range r.Hints {
			if h.SitePC == r.Sites[i].PC {
				r.Sites[i].NumHints++
			}
		}
	}
	return r, nil
}

// emitter is one proved site's enumerated hint sequence before global
// ordering.
type emitter struct {
	sitePC int64
	loop   int // binding loop, -1 for straight-line code
	hints  []SynthHint
}

// orderHints arranges proved hints in expected dynamic consumption order:
// emitters are grouped by binding loop, groups follow program order of their
// first site, and within a shared loop the iterations interleave (iteration
// i of every site precedes iteration i+1 of any).
func orderHints(emitters []emitter) []SynthHint {
	sort.SliceStable(emitters, func(i, j int) bool { return emitters[i].sitePC < emitters[j].sitePC })
	var groups [][]emitter
	byLoop := make(map[int]int)
	for _, em := range emitters {
		if em.loop >= 0 {
			if gi, ok := byLoop[em.loop]; ok {
				groups[gi] = append(groups[gi], em)
				continue
			}
			byLoop[em.loop] = len(groups)
		}
		groups = append(groups, []emitter{em})
	}
	var out []SynthHint
	for _, grp := range groups {
		var all []SynthHint
		for _, em := range grp {
			all = append(all, em.hints...)
		}
		sort.SliceStable(all, func(i, j int) bool {
			if all[i].Iter != all[j].Iter {
				return all[i].Iter < all[j].Iter
			}
			return all[i].SitePC < all[j].SitePC
		})
		out = append(out, all...)
	}
	return out
}

// synthesizer bundles the solved analyses for one program.
type synthesizer struct {
	g      *CFG
	li     *LoopInfo
	ev     *evaluator
	ranges *Ranges
	pos    map[int64]fposVal
	trips  map[int]tripResult
}

type tripResult struct {
	n  int64
	ok bool
}

// site synthesizes one read site.
func (sy *synthesizer) site(pc int64, st *siteTaints) (SynthSite, *emitter) {
	s := SynthSite{PC: pc, Conf: ConfSpecOnly, Class: classOf(st), Loop: -1, Trips: 1}
	if em := sy.prove(pc, &s); em != nil {
		s.Conf = ConfProved
		return s, em
	}
	if iv, ok := sy.ranges.siteBound(pc); ok && iv.finite() {
		if iv.Lo < 0 {
			iv.Lo = 0
		}
		s.Conf = ConfBounded
		s.Bound = iv
		s.Bounded = true
	}
	return s, nil
}

// prove attempts the closed-form template for one read site. On success the
// site fields (Template, Loop, Trips) are filled and the enumerated hints
// returned.
func (sy *synthesizer) prove(pc int64, s *SynthSite) *emitter {
	// The descriptor must trace to exactly one open syscall.
	fd := sy.ev.eval(pc, vm.R1, nil, 0)
	if fd.kind != exFD {
		return nil
	}
	openPC := fd.pc

	// The file position at the read must be statically sequential and bound
	// to the same open.
	pv := sy.pos[pc]
	if (pv.kind != posSeq && pv.kind != posStream) || pv.open != openPC {
		return nil
	}

	// The open's iteration space must be at most one counted loop.
	openLoops := sy.loopsContaining(openPC)
	siteLoops := sy.loopsContaining(pc)
	binding := -1
	if len(openLoops) > 1 {
		return nil
	}
	if len(openLoops) == 1 {
		binding = openLoops[0]
		if !contains(siteLoops, binding) {
			return nil // the site uses a descriptor from a finished loop
		}
	}

	// One read per open pairing: the open must run on every path that
	// reaches the site within the same iteration, and vice versa.
	if !sy.paired(binding, openPC, pc) {
		return nil
	}

	// Template shape. Exactly the open's loops → one positioned read per
	// iteration; nested deeper with a sequential stream → whole-file scan.
	deeper := len(siteLoops) > len(openLoops)
	var off, length int64
	switch {
	case !deeper && pv.kind == posSeq:
		ln := sy.ev.eval(pc, vm.R3, nil, 0)
		if ln.kind != exConst || ln.k <= 0 {
			return nil
		}
		off, length = pv.off, ln.k
	case deeper:
		// Sequential scan from the stream origin; length clamps to EOF.
		off, length = pv.off, wholeFileLen
	default:
		return nil
	}

	// Trip count and path enumeration.
	trips := int64(1)
	if binding >= 0 {
		n, ok := sy.tripOf(binding)
		if !ok || n < 0 || n > 4096 {
			return nil
		}
		trips = n
	}
	em := &emitter{sitePC: pc, loop: binding}
	for i := int64(0); i < trips; i++ {
		var env map[int]int64
		if binding >= 0 {
			env = map[int]int64{binding: i}
		}
		pe := sy.ev.eval(openPC, vm.R1, env, 0)
		if pe.kind != exConst {
			return nil
		}
		path, ok := sy.ev.cString(pe.k)
		if !ok {
			return nil
		}
		em.hints = append(em.hints, SynthHint{
			SitePC: pc, Iter: i, Path: path, Off: off, N: length, Conf: ConfProved,
		})
	}

	s.Loop = binding
	s.Trips = trips
	lenStr := fmt.Sprint(length)
	if length == wholeFileLen {
		lenStr = "EOF"
	}
	if binding >= 0 {
		s.Template = fmt.Sprintf("for i<%d: hint(path[i], off=%d, len=%s)", trips, off, lenStr)
	} else {
		s.Template = fmt.Sprintf("hint(%q, off=%d, len=%s)", firstPath(em.hints), off, lenStr)
	}
	return em
}

func firstPath(hs []SynthHint) string {
	if len(hs) == 0 {
		return ""
	}
	return hs[0].Path
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func (sy *synthesizer) loopsContaining(pc int64) []int {
	var out []int
	for l := range sy.li.Loops {
		if sy.li.contains(l, pc) {
			out = append(out, l)
		}
	}
	return out
}

func (sy *synthesizer) tripOf(l int) (int64, bool) {
	if r, ok := sy.trips[l]; ok {
		return r.n, r.ok
	}
	n, ok := sy.li.tripCountWith(l,
		func(iv IndVar) (int64, bool) {
			x := sy.ev.evalDef(iv.InitPC, nil, 0)
			return x.k, x.kind == exConst
		},
		func(pc int64, reg uint8) (int64, bool) {
			x := sy.ev.eval(pc, reg, nil, 0)
			return x.k, x.kind == exConst
		})
	sy.trips[l] = tripResult{n, ok}
	return n, ok
}

// paired verifies the open-to-read pairing for the closed-form template:
// within one iteration of the binding loop (or within straight-line code for
// binding < 0) every execution of the site observes a descriptor produced by
// this iteration's open, and the open's file is always read at least once.
// Error-guard edges on syscall results are pruned — synthesis assumes the
// run completes (audited by Verify).
func (sy *synthesizer) paired(binding int, openPC, sitePC int64) bool {
	g := sy.g
	ob, sb := g.blockOf(openPC), g.blockOf(sitePC)
	if ob < 0 || sb < 0 {
		return false
	}
	if ob == sb {
		return openPC < sitePC
	}
	if binding < 0 {
		// Straight-line: the open dominates the site, and no pruned path
		// from the open terminates without passing the site.
		if !dominates(sy.li.Idom, ob, sb) {
			return false
		}
		return !sy.escapes(ob, sb)
	}
	prune := sy.prunedEdge
	// The open runs every iteration…
	reach := sy.li.bodyReach(binding, sy.li.Loops[binding].Header, ob, prune)
	for _, t := range sy.li.Loops[binding].Tails {
		if reach[t] {
			return false
		}
	}
	// …the site runs every iteration…
	reach = sy.li.bodyReach(binding, sy.li.Loops[binding].Header, sb, prune)
	for _, t := range sy.li.Loops[binding].Tails {
		if reach[t] {
			return false
		}
	}
	// …and the site is only reachable through this iteration's open.
	reach = sy.li.bodyReach(binding, sy.li.Loops[binding].Header, ob, prune)
	return !reach[sb]
}

// escapes reports whether, starting at block from, the program can terminate
// (exit, return or unresolved indirect) without passing through block via,
// pruning error-guard edges.
func (sy *synthesizer) escapes(from, via int) bool {
	g := sy.g
	seen := map[int]bool{from: true}
	stack := []int{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == via {
			continue
		}
		blk := g.Blocks[b]
		if blk.Returns || blk.IndirectExit {
			return true
		}
		for pc := blk.Start; pc < blk.End; pc++ {
			ins := g.Prog.Text[pc]
			if ins.Op == vm.SYSCALL && ins.Imm == vm.SysExit {
				return true
			}
		}
		for _, s := range blk.Succs {
			if !seen[s] && !sy.prunedEdge(b, s) {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// prunedEdge reports whether the edge b→t is the failure arm of a branch
// guarding a syscall result (open returning a bad descriptor, a read
// returning a short count). Synthesis assumes those guards pass.
func (sy *synthesizer) prunedEdge(b, t int) bool {
	g := sy.g
	blk := g.Blocks[b]
	ins := g.Prog.Text[blk.End-1]
	if !ins.Op.IsBranch() {
		return false
	}
	x := sy.ev.eval(blk.End-1, ins.Rs1, nil, 0)
	if x.kind != exFD && x.kind != exSys {
		return false
	}
	if ins.Rs2 != vm.R0 {
		y := sy.ev.eval(blk.End-1, ins.Rs2, nil, 0)
		if y.kind != exConst {
			return false
		}
	}
	taken := g.blockOf(ins.Imm)
	fall := g.blockOf(blk.End)
	if taken == fall {
		return false
	}
	switch ins.Op {
	case vm.BLT: // result < bound: failure is the taken arm
		return t == taken
	case vm.BGE: // result ≥ bound holds on success: failure falls through
		return t == fall
	case vm.BNE: // result ≠ expected: failure is the taken arm
		return t == taken
	}
	return false
}

// ---------------------------------------------------------------------------
// The symbolic evaluator: resolves a register at a program point to a
// constant, an affine function of a loop's iteration count, or a syscall
// result, by chasing reaching definitions. env pins loop iterations to
// concrete values, turning affine expressions into constants (used to
// enumerate a loop's hint sequence).

type exprKind uint8

const (
	exUnknown exprKind = iota
	exConst            // k
	exAffine           // k + coef·i, i the iteration count of loop
	exFD               // descriptor returned by the open at pc
	exSys              // result of some other syscall at pc
)

type expr struct {
	kind exprKind
	k    int64
	coef int64
	loop int
	pc   int64
}

func cExpr(k int64) expr { return expr{kind: exConst, k: k} }

type evaluator struct {
	p  *vm.Program
	g  *CFG
	li *LoopInfo
	rd *ReachingDefs
	ta *taintAnalysis

	// memo caches env-independent results (env == nil). The sentinel entry
	// (present but unresolved) cuts definition cycles that are not
	// recognized induction variables.
	memo map[evalKey]*expr
}

type evalKey struct {
	pc  int64
	reg uint8
}

func (e *evaluator) eval(pc int64, reg uint8, env map[int]int64, depth int) expr {
	if reg == vm.R0 {
		return cExpr(0)
	}
	if depth > evalDepthMax {
		return expr{}
	}
	if env == nil {
		if e.memo == nil {
			e.memo = make(map[evalKey]*expr)
		}
		k := evalKey{pc, reg}
		if v, ok := e.memo[k]; ok {
			if v == nil {
				return expr{} // cycle through a non-IV definition chain
			}
			return *v
		}
		e.memo[k] = nil
		v := e.eval1(pc, reg, nil, depth)
		e.memo[k] = &v
		return v
	}
	return e.eval1(pc, reg, env, depth)
}

func (e *evaluator) eval1(pc int64, reg uint8, env map[int]int64, depth int) expr {
	defs := e.rd.defsOf(pc, reg)
	switch len(defs) {
	case 1:
		if e.isStep(defs[0], reg) {
			return expr{} // lone in-loop step: iteration phase is ambiguous
		}
		return e.evalDef(defs[0], env, depth)
	case 2:
		return e.evalIV(pc, reg, defs, env, depth)
	}
	return expr{}
}

func (e *evaluator) isStep(pc int64, reg uint8) bool {
	for l := range e.li.Loops {
		for _, iv := range e.li.Loops[l].IVs {
			if iv.Reg == reg && iv.StepPC == pc {
				return true
			}
		}
	}
	return false
}

// evalIV recognizes the {init, step} reaching-def pair of a basic induction
// variable: the value at a header-phase use is init + step·i.
func (e *evaluator) evalIV(pc int64, reg uint8, defs []int64, env map[int]int64, depth int) expr {
	for l := range e.li.Loops {
		if !e.li.contains(l, pc) {
			continue
		}
		iv, ok := e.li.Loops[l].iv(reg)
		if !ok {
			continue
		}
		if !(defs[0] == iv.InitPC && defs[1] == iv.StepPC) &&
			!(defs[0] == iv.StepPC && defs[1] == iv.InitPC) {
			continue
		}
		// The use must read the header-phase value: the step may not run
		// before it within one iteration.
		sb, ub := e.g.blockOf(iv.StepPC), e.g.blockOf(pc)
		if sb == ub {
			if iv.StepPC < pc {
				return expr{} // post-increment read: ambiguous with RD alone
			}
		} else if e.li.bodyReach(l, sb, -1, nil)[ub] {
			return expr{} // some intra-iteration path increments first
		}
		init := e.evalDef(iv.InitPC, env, depth+1)
		if init.kind != exConst {
			return expr{}
		}
		if env != nil {
			if i, ok := env[l]; ok {
				return cExpr(init.k + iv.Step*i)
			}
		}
		return expr{kind: exAffine, k: init.k, coef: iv.Step, loop: l}
	}
	return expr{}
}

func (e *evaluator) evalDef(defPC int64, env map[int]int64, depth int) expr {
	if depth > evalDepthMax {
		return expr{}
	}
	ins := e.p.Text[defPC]
	switch {
	case ins.Op == vm.MOVI:
		return cExpr(ins.Imm)
	case ins.Op == vm.ADD && ins.Rs2 == vm.R0: // mov rd, rs
		return e.eval(defPC, ins.Rs1, env, depth+1)
	case ins.Op >= vm.ADD && ins.Op <= vm.SLT:
		x := e.eval(defPC, ins.Rs1, env, depth+1)
		y := e.eval(defPC, ins.Rs2, env, depth+1)
		return exALU(ins.Op, x, y)
	case ins.Op >= vm.ADDI && ins.Op <= vm.SLTI:
		return exALU(ins.Op, e.eval(defPC, ins.Rs1, env, depth+1), cExpr(ins.Imm))
	case ins.Op.IsLoad():
		base := e.eval(defPC, ins.Rs1, env, depth+1)
		if base.kind != exConst {
			return expr{}
		}
		return e.loadConst(ins.Op, base.k+ins.Imm)
	case ins.Op == vm.SYSCALL:
		if ins.Imm == vm.SysOpen {
			return expr{kind: exFD, pc: defPC}
		}
		return expr{kind: exSys, pc: defPC}
	case ins.Op.IsCall():
		return cExpr(defPC + 1) // RA
	}
	return expr{}
}

func exALU(op vm.Op, x, y expr) expr {
	if x.kind == exConst && y.kind == exConst {
		if v, ok := constFold(op, x.k, y.k); ok {
			return cExpr(v)
		}
		return expr{}
	}
	switch op {
	case vm.ADD, vm.ADDI:
		return exAdd(x, y)
	case vm.SUB:
		return exAdd(x, exScale(y, -1))
	case vm.MUL:
		if y.kind == exConst {
			return exScale(x, y.k)
		}
		if x.kind == exConst {
			return exScale(y, x.k)
		}
	case vm.SHLI:
		if y.kind == exConst && y.k >= 0 && y.k < 62 {
			return exScale(x, int64(1)<<uint(y.k))
		}
	}
	return expr{}
}

func exAdd(x, y expr) expr {
	switch {
	case x.kind == exConst && y.kind == exAffine:
		return expr{kind: exAffine, k: y.k + x.k, coef: y.coef, loop: y.loop}
	case x.kind == exAffine && y.kind == exConst:
		return expr{kind: exAffine, k: x.k + y.k, coef: x.coef, loop: x.loop}
	case x.kind == exAffine && y.kind == exAffine && x.loop == y.loop:
		return expr{kind: exAffine, k: x.k + y.k, coef: x.coef + y.coef, loop: x.loop}
	}
	return expr{}
}

func exScale(x expr, k int64) expr {
	switch x.kind {
	case exConst:
		return cExpr(x.k * k)
	case exAffine:
		return expr{kind: exAffine, k: x.k * k, coef: x.coef * k, loop: x.loop}
	}
	return expr{}
}

// loadConst folds a load from a constant address in a clean region.
func (e *evaluator) loadConst(op vm.Op, addr int64) expr {
	size := int64(8)
	if op == vm.LDB || op == vm.LDBS {
		size = 1
	}
	if addr < 0 || addr+size > int64(len(e.p.Data)) {
		return expr{}
	}
	if !e.ta.cleanRegion(e.ta.rg.resolve(e.p, addr)) ||
		!e.ta.cleanRegion(e.ta.rg.resolve(e.p, addr+size-1)) {
		return expr{}
	}
	if size == 1 {
		return cExpr(int64(e.p.Data[addr]))
	}
	return cExpr(readDataWord(e.p.Data, addr))
}

func readDataWord(data []byte, off int64) int64 {
	v := int64(0)
	for b := int64(0); b < 8; b++ {
		v |= int64(data[off+b]) << (8 * b)
	}
	return v
}

// cString reads a NUL-terminated string from clean initialized data.
func (e *evaluator) cString(addr int64) (string, bool) {
	if addr < 0 {
		return "", false
	}
	var b []byte
	for a := addr; a < int64(len(e.p.Data)) && len(b) < 4096; a++ {
		if !e.ta.cleanRegion(e.ta.rg.resolve(e.p, a)) {
			return "", false
		}
		c := e.p.Data[a]
		if c == 0 {
			return string(b), true
		}
		b = append(b, c)
	}
	return "", false
}

// rangeOracle adapts the evaluator into the value-range pass's load oracle:
// a load at a constant clean address folds to its value; an affine cursor
// over clean data joins every value the walk can reach before leaving the
// initialized image (past which the dynamic load would fault).
func (e *evaluator) rangeOracle() LoadOracle {
	return func(pc int64, ins vm.Instr) (Interval, bool) {
		size := int64(8)
		if ins.Op == vm.LDB || ins.Op == vm.LDBS {
			size = 1
		}
		read := func(addr int64) (int64, bool) {
			if addr < 0 || addr+size > int64(len(e.p.Data)) {
				return 0, false
			}
			if !e.ta.cleanRegion(e.ta.rg.resolve(e.p, addr)) ||
				!e.ta.cleanRegion(e.ta.rg.resolve(e.p, addr+size-1)) {
				return 0, false
			}
			if size == 1 {
				return int64(e.p.Data[addr]), true
			}
			return readDataWord(e.p.Data, addr), true
		}
		base := e.eval(pc, ins.Rs1, nil, 0)
		switch base.kind {
		case exConst:
			if v, ok := read(base.k + ins.Imm); ok {
				return point(v), true
			}
		case exAffine:
			if base.coef == 0 {
				break
			}
			const walkCap = 4096
			var iv Interval
			got := false
			addr := base.k + ins.Imm
			for j := 0; j < walkCap; j++ {
				v, ok := read(addr)
				if !ok {
					break
				}
				if !got {
					iv, got = point(v), true
				} else {
					iv = iv.join(point(v))
				}
				addr += base.coef
			}
			// Sound only when the walk ended by leaving the data image: a
			// stop at a dirty region (or the cap) means the dynamic load
			// could observe values we did not enumerate.
			if got && (addr < 0 || addr+size > int64(len(e.p.Data))) {
				return iv, true
			}
		}
		return Interval{}, false
	}
}

// ---------------------------------------------------------------------------
// The file-position mini-dataflow. One abstract stream (the paper's apps
// interleave descriptors only through memory, which drops the descriptor to
// exSys and disqualifies the site anyway): position is "sequential at known
// offset k since the open at pc" (posSeq), "advanced sequentially from k by
// reads only" (posStream), or unknown.

type fposKind uint8

const (
	posBot fposKind = iota
	posSeq
	posStream
	posTop
)

type fposVal struct {
	kind fposKind
	off  int64 // stream origin
	open int64 // pc of the open that created the stream
}

func joinPos(a, b fposVal) fposVal {
	if a.kind == posBot {
		return b
	}
	if b.kind == posBot {
		return a
	}
	if a.kind == posTop || b.kind == posTop {
		return fposVal{kind: posTop}
	}
	if a.off != b.off || a.open != b.open {
		return fposVal{kind: posTop}
	}
	if a.kind == posStream || b.kind == posStream {
		return fposVal{kind: posStream, off: a.off, open: a.open}
	}
	return a
}

// solvePos runs the position dataflow and returns the joined position at
// each read site.
func solvePos(g *CFG, e *evaluator) map[int64]fposVal {
	sites := make(map[int64]fposVal)
	transfer := func(block int, s *fposVal) *fposVal {
		b := g.Blocks[block]
		for pc := b.Start; pc < b.End; pc++ {
			ins := g.Prog.Text[pc]
			if ins.Op != vm.SYSCALL {
				continue
			}
			switch ins.Imm {
			case vm.SysOpen:
				*s = fposVal{kind: posSeq, off: 0, open: pc}
			case vm.SysSeek:
				if s.kind == posSeq || s.kind == posStream {
					if off := e.eval(pc, vm.R2, nil, 0); off.kind == exConst {
						*s = fposVal{kind: posSeq, off: off.k, open: s.open}
						continue
					}
				}
				*s = fposVal{kind: posTop}
			case vm.SysRead:
				cur := *s
				if prev, ok := sites[pc]; ok {
					cur = joinPos(prev, cur)
				}
				sites[pc] = cur
				if s.kind == posSeq {
					s.kind = posStream
				}
			case vm.SysClose:
				*s = fposVal{kind: posTop}
			}
		}
		return s
	}
	solveForward(g,
		func() *fposVal { return &fposVal{kind: posTop} },
		func(s *fposVal) *fposVal { c := *s; return &c },
		func(dst, src *fposVal) bool {
			j := joinPos(*dst, *src)
			if j != *dst {
				*dst = j
				return true
			}
			return false
		},
		transfer)
	return sites
}

// ---------------------------------------------------------------------------
// Report rendering and dynamic verification.

// ConfCounts returns the number of sites per confidence level.
func (r *SynthReport) ConfCounts() map[Confidence]int {
	m := make(map[Confidence]int)
	for _, s := range r.Sites {
		m[s.Conf]++
	}
	return m
}

// ranked returns the sites ordered by confidence (descending), then PC.
func (r *SynthReport) ranked() []SynthSite {
	out := append([]SynthSite(nil), r.Sites...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Conf != out[j].Conf {
			return out[i].Conf > out[j].Conf
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// String renders the deterministic confidence-ranked hint report.
func (r *SynthReport) String() string {
	loc := asm.NewLocator(r.Prog)
	var b strings.Builder
	fmt.Fprintf(&b, "cfg: %s\n", r.CFG.summary())
	fmt.Fprintf(&b, "loops: %s\n", r.Loops.summary())
	counts := r.ConfCounts()
	fmt.Fprintf(&b, "read sites: %d total — %d proved, %d bounded, %d speculative-only\n",
		len(r.Sites), counts[ConfProved], counts[ConfBounded], counts[ConfSpecOnly])
	fmt.Fprintf(&b, "synthesized hints: %d\n", len(r.Hints))
	for _, s := range r.ranked() {
		fmt.Fprintf(&b, "  pc %-5d %-16s %-16s prior=%.2f", s.PC, loc.Locate(s.PC)+":", s.Conf, s.Conf.Prior())
		switch {
		case s.Conf == ConfProved:
			fmt.Fprintf(&b, " %s (%d hints, class %s)", s.Template, s.NumHints, s.Class)
		case s.Conf == ConfBounded:
			fmt.Fprintf(&b, " off in %s (class %s)", s.Bound, s.Class)
		default:
			fmt.Fprintf(&b, " class %s", s.Class)
		}
		b.WriteString("\n")
	}
	const show = 12
	for i, h := range r.Hints {
		if i == show {
			fmt.Fprintf(&b, "  … and %d more hints\n", len(r.Hints)-show)
			break
		}
		fmt.Fprintf(&b, "  hint %-3d %q off=%d len=%d (site pc %d, iter %d)\n",
			i+1, h.Path, h.Off, h.N, h.SitePC, h.Iter)
	}
	return b.String()
}

// PredictedCoverage combines the per-site access classes with dynamic
// execution counts into a predicted hinted-read fraction directly comparable
// to the paper's Table 4 (hinted reads / all read calls; EOF probes count in
// the denominator but can never be hinted). Sites absent from the report
// (e.g. reads reached only through unresolved indirect control flow) are
// conservatively treated as data-dependent. Only Calls and DataCalls are
// read.
func (r *SynthReport) PredictedCoverage(sites map[int64]DynSiteStats) float64 {
	class := make(map[int64]AccessClass, len(r.Sites))
	for _, s := range r.Sites {
		class[s.PC] = s.Class
	}
	// Accumulate in sorted site order: float addition is order-sensitive, and
	// map iteration order would make the low bits vary run to run.
	pcs := make([]int64, 0, len(sites))
	for pc := range sites {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	var predicted float64
	var total int64
	for _, pc := range pcs {
		w := sites[pc]
		total += w.Calls
		c, ok := class[pc]
		if !ok {
			c = ClassData
		}
		predicted += c.hintProbability() * float64(w.DataCalls)
	}
	if total == 0 {
		return 0
	}
	return predicted / float64(total)
}

// LintStaticHint flags a synthesized hint contradicted by the dynamic run:
// the analysis promised a consumption the run did not deliver.
const LintStaticHint LintCheck = "static-hint"

// DynSiteStats mirrors the runtime per-site read counters (core.RunStats)
// without importing the simulator.
type DynSiteStats struct {
	Calls     int64
	DataCalls int64
	Hinted    int64
}

// DynVerifyStats carries the dynamic evidence Verify audits against.
type DynVerifyStats struct {
	Sites        map[int64]DynSiteStats
	HintCalls    int64 // hint segments issued
	MatchedCalls int64 // segments fully consumed by reads
	BypassedSegs int64 // segments skipped out of order
}

// Verify audits every proved hint against the dynamic run: a synthesized
// hint the run never consumed, a bypassed segment, or a proved site whose
// data reads were not fully hinted is a lint finding. A nil result means the
// static analysis made no false promise.
func (r *SynthReport) Verify(d DynVerifyStats) []Finding {
	var fs []Finding
	add := func(pc int64, format string, args ...any) {
		fs = append(fs, Finding{Check: LintStaticHint, PC: pc, Msg: fmt.Sprintf(format, args...)})
	}
	if d.BypassedSegs > 0 {
		add(0, "%d synthesized segments were bypassed: hints issued out of consumption order", d.BypassedSegs)
	}
	if d.MatchedCalls < d.HintCalls {
		add(0, "%d of %d synthesized hints were never fully consumed by the dynamic run",
			d.HintCalls-d.MatchedCalls, d.HintCalls)
	}
	for _, s := range r.Sites {
		if s.Conf != ConfProved || s.NumHints == 0 {
			continue
		}
		w, ok := d.Sites[s.PC]
		if !ok || w.Calls == 0 {
			add(s.PC, "proved site never executed dynamically (%d hints promised)", s.NumHints)
			continue
		}
		if w.Hinted < w.DataCalls {
			add(s.PC, "proved site: only %d of %d data reads arrived hinted", w.Hinted, w.DataCalls)
		}
	}
	return fs
}
