package analysis

import (
	"sort"

	"spechint/internal/vm"
)

// The taint analysis answers one question per value: what runtime input does
// it depend on? The lattice is the totally ordered chain
//
//	TaintNone ⊑ TaintArgv ⊑ TaintHeader ⊑ TaintData
//
// where TaintNone means "fixed by the program text", TaintArgv "depends on
// the static argument data (the file lists, patterns and slice tables in the
// data section — the program's command line)", TaintHeader "depends on
// first-level file metadata (data located by static information)", and
// TaintData "depends on arbitrary file contents (data located by other file
// data)". The join is max: a value depending on both argv and file data is
// data-dependent.
//
// Seeding follows the paper's access-pattern taxonomy (§4.1-§4.3): the data
// section is argv, and a read's destination buffer is tainted by *where the
// read's location came from* — a read located statically yields header-level
// metadata, a read located by file content yields data-dependent bytes.

// Taint is what runtime input a value depends on.
type Taint uint8

const (
	TaintNone   Taint = iota // fixed by the program text
	TaintArgv                // static argument data (argv-determined)
	TaintHeader              // first-level file metadata
	TaintData                // arbitrary file data
)

func (t Taint) String() string {
	switch t {
	case TaintNone:
		return "const"
	case TaintArgv:
		return "argv"
	case TaintHeader:
		return "header"
	case TaintData:
		return "data"
	}
	return "taint?"
}

// join is the lattice join (max of the chain).
func (t Taint) join(u Taint) Taint {
	if u > t {
		return u
	}
	return t
}

// AccessClass is the paper's access-pattern taxonomy for read call sites
// (§4.1-§4.3): Agrep's reads are argv-determined, XDataSlice's are computable
// from one header read, Gnuld's chase pointers through file data.
type AccessClass uint8

const (
	ClassArgv   AccessClass = iota // determined by the static argument data
	ClassHeader                    // computable from first-level file metadata
	ClassData                      // dependent on arbitrary file data
)

func (c AccessClass) String() string {
	switch c {
	case ClassArgv:
		return "argv-determined"
	case ClassHeader:
		return "header-determined"
	case ClassData:
		return "data-dependent"
	}
	return "class?"
}

// hintProbability is the modeled probability that a dynamic read issued from
// a site of this class arrives hinted under speculative execution. Argv- and
// header-determined sites are fully computable ahead of the access (the
// paper hints essentially all of them); a data-dependent site can only be
// hinted when the read it depends on was itself prefetched or cached in
// time, which the paper's Gnuld analysis (§4.2: "limited to about half")
// puts near one half. These are calibrated model constants in the same
// spirit as the simulator's cycle costs.
func (c AccessClass) hintProbability() float64 {
	switch c {
	case ClassArgv, ClassHeader:
		return 1.0
	default:
		return 0.5
	}
}

// classOf joins a read site's descriptor, position and length taints into
// its access class.
func classOf(st *siteTaints) AccessClass {
	switch st.fd.join(st.pos).join(st.length) {
	case TaintNone, TaintArgv:
		return ClassArgv
	case TaintHeader:
		return ClassHeader
	default:
		return ClassData
	}
}

// Abstract values. The analysis is a constant/region propagation carrying
// taint: vConst knows the exact value (so absolute loads resolve their data
// region), vAddr knows the region a pointer points into but not the offset
// (loop cursors), vTaint knows only the taint.
type vkind uint8

const (
	vBottom vkind = iota
	vConst        // exact value k
	vAddr         // pointer into data region, element choice tainted t
	vTaint        // unknown value of taint t
)

type aval struct {
	kind   vkind
	k      int64 // vConst
	region int   // vAddr
	t      Taint // vAddr (element choice) and vTaint
}

func constV(k int64) aval       { return aval{kind: vConst, k: k} }
func taintV(t Taint) aval       { return aval{kind: vTaint, t: t} }
func addrV(r int, t Taint) aval { return aval{kind: vAddr, region: r, t: t} }

// taintOf is the taint of the value itself. A known pointer is statically
// fixed; only its element choice carries taint.
func taintOf(v aval) Taint {
	switch v.kind {
	case vConst, vBottom:
		return TaintNone
	case vAddr:
		return v.t
	default:
		return v.t
	}
}

// regions partitions the data section by its symbols, so the analysis can
// track a content taint per named buffer/table. The stack is modeled as one
// extra pseudo-region (index len(starts)).
type regions struct {
	starts []int64 // sorted region start addresses
}

const regionUnknown = -1

func buildRegions(p *vm.Program) *regions {
	var addrs []int64
	for _, addr := range p.DataSymbols {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	r := &regions{}
	last := int64(-1)
	for _, a := range addrs {
		if a == last {
			continue // aliased symbols share one region
		}
		r.starts = append(r.starts, a)
		last = a
	}
	if len(r.starts) == 0 || r.starts[0] > 0 {
		r.starts = append([]int64{0}, r.starts...)
	}
	return r
}

func (r *regions) count() int { return len(r.starts) + 1 } // + stack pseudo-region

func (r *regions) stack() int { return len(r.starts) }

// resolve maps a data address to its region, or regionUnknown.
func (r *regions) resolve(p *vm.Program, addr int64) int {
	if addr < 0 || addr >= p.DataSize {
		return regionUnknown
	}
	i := sort.Search(len(r.starts), func(i int) bool { return r.starts[i] > addr })
	return i - 1
}

// exact maps an address to its region only if it is exactly a symbol base —
// the pattern `movi rX, buf; add rX, rX, rIdx` — so arbitrary small
// constants don't masquerade as pointers.
func (r *regions) exact(addr int64) int {
	i := sort.Search(len(r.starts), func(i int) bool { return r.starts[i] >= addr })
	if i < len(r.starts) && r.starts[i] == addr {
		return i
	}
	return regionUnknown
}

// taintState is the per-program-point abstract state.
type taintState struct {
	regs [vm.NumRegs]aval
	fpos Taint   // taint of the in-effect file position (seek offsets)
	mem  []Taint // content taint per region
}

func newTaintState(nregions int) *taintState {
	s := &taintState{mem: make([]Taint, nregions)}
	return s
}

func (s *taintState) clone() *taintState {
	c := *s
	c.mem = append([]Taint(nil), s.mem...)
	return &c
}

func joinVal(a, b aval, rg *regions, p *vm.Program) aval {
	switch {
	case a.kind == vBottom:
		return b
	case b.kind == vBottom:
		return a
	case a.kind == vConst && b.kind == vConst:
		if a.k == b.k {
			return a
		}
		// Two different constants: if both land in the same data region the
		// value is a moving cursor within it; otherwise the merged value is
		// merely statically computable.
		ra, rb := rg.resolve(p, a.k), rg.resolve(p, b.k)
		if ra != regionUnknown && ra == rb {
			return addrV(ra, TaintNone)
		}
		return taintV(TaintNone)
	case a.kind == vAddr && b.kind == vAddr:
		if a.region == b.region {
			return addrV(a.region, a.t.join(b.t))
		}
		return taintV(a.t.join(b.t))
	case a.kind == vAddr && b.kind == vConst:
		if rg.resolve(p, b.k) == a.region {
			return a
		}
		return taintV(a.t)
	case a.kind == vConst && b.kind == vAddr:
		return joinVal(b, a, rg, p)
	default: // at least one vTaint
		return taintV(taintOf(a).join(taintOf(b)))
	}
}

// join merges src into dst, reporting change.
func (s *taintState) join(src *taintState, rg *regions, p *vm.Program) bool {
	changed := false
	for i := range s.regs {
		v := joinVal(s.regs[i], src.regs[i], rg, p)
		if v != s.regs[i] {
			s.regs[i] = v
			changed = true
		}
	}
	if t := s.fpos.join(src.fpos); t != s.fpos {
		s.fpos = t
		changed = true
	}
	for i := range s.mem {
		if t := s.mem[i].join(src.mem[i]); t != s.mem[i] {
			s.mem[i] = t
			changed = true
		}
	}
	return changed
}

// taintAnalysis bundles the immutable context of one run.
type taintAnalysis struct {
	p  *vm.Program
	rg *regions

	// sites accumulates, per read-syscall PC, the joined component taints
	// across all abstract visits.
	sites map[int64]*siteTaints

	// dirty marks regions whose runtime content may diverge from the
	// initialized data image: store targets and read/fstat buffers. A clean
	// region's bytes equal p.Data at every program point, so the static
	// passes (range, synth) may constant-fold loads from it.
	dirty []bool
}

func (a *taintAnalysis) markDirty(region int) {
	if region == regionUnknown {
		for i := range a.dirty {
			a.dirty[i] = true
		}
		return
	}
	a.dirty[region] = true
}

// cleanRegion reports whether loads from region always observe the
// initialized data image.
func (a *taintAnalysis) cleanRegion(region int) bool {
	return region >= 0 && region < len(a.dirty) && !a.dirty[region]
}

type siteTaints struct {
	fd, pos, length Taint
	set             bool
}

func (a *taintAnalysis) val(s *taintState, r uint8) aval {
	if r == vm.R0 {
		return constV(0)
	}
	return s.regs[r]
}

func (a *taintAnalysis) set(s *taintState, r uint8, v aval) {
	if r != vm.R0 {
		s.regs[r] = v
	}
}

// maxContent is the join over all region content taints, the conservative
// answer for loads through pointers of unknown region.
func (a *taintAnalysis) maxContent(s *taintState) Taint {
	t := TaintNone
	for _, m := range s.mem {
		t = t.join(m)
	}
	return t
}

// baseRegion resolves a memory operand (base value + displacement) to a
// region and the taint of the element choice.
func (a *taintAnalysis) baseRegion(s *taintState, base aval, imm int64, sp bool) (int, Taint) {
	if sp {
		return a.rg.stack(), TaintNone
	}
	switch base.kind {
	case vConst:
		return a.rg.resolve(a.p, base.k+imm), TaintNone
	case vAddr:
		return base.region, base.t
	default:
		return regionUnknown, taintOf(base)
	}
}

// alu combines two operands for an arithmetic op.
func (a *taintAnalysis) alu(op vm.Op, x, y aval) aval {
	if x.kind == vConst && y.kind == vConst {
		if v, ok := constFold(op, x.k, y.k); ok {
			return constV(v)
		}
		return taintV(TaintNone)
	}
	additive := op == vm.ADD || op == vm.ADDI || op == vm.SUB
	if additive {
		// Pointer arithmetic: a known symbol base plus a varying offset
		// stays a pointer into that region; the offset taints the element
		// choice.
		if x.kind == vAddr && y.kind != vAddr {
			return addrV(x.region, x.t.join(taintOf(y)))
		}
		if y.kind == vAddr && x.kind != vAddr && op != vm.SUB {
			return addrV(y.region, y.t.join(taintOf(x)))
		}
		if x.kind == vConst && y.kind == vTaint {
			if r := a.rg.exact(x.k); r != regionUnknown {
				return addrV(r, y.t)
			}
		}
		if y.kind == vConst && x.kind == vTaint && op != vm.SUB {
			if r := a.rg.exact(y.k); r != regionUnknown {
				return addrV(r, x.t)
			}
		}
	}
	return taintV(taintOf(x).join(taintOf(y)))
}

func constFold(op vm.Op, x, y int64) (int64, bool) {
	switch op {
	case vm.ADD, vm.ADDI:
		return x + y, true
	case vm.SUB:
		return x - y, true
	case vm.MUL:
		return x * y, true
	case vm.DIV:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case vm.MOD:
		if y == 0 {
			return 0, false
		}
		return x % y, true
	case vm.AND, vm.ANDI:
		return x & y, true
	case vm.OR, vm.ORI:
		return x | y, true
	case vm.XOR, vm.XORI:
		return x ^ y, true
	case vm.SHL, vm.SHLI:
		return x << uint64(y&63), true
	case vm.SHR, vm.SHRI:
		return int64(uint64(x) >> uint64(y&63)), true
	case vm.SLT, vm.SLTI:
		if x < y {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// transfer interprets one instruction abstractly, mutating s.
func (a *taintAnalysis) transfer(s *taintState, pc int64, ins vm.Instr) {
	switch {
	case ins.Op >= vm.ADD && ins.Op <= vm.SLT:
		a.set(s, ins.Rd, a.alu(ins.Op, a.val(s, ins.Rs1), a.val(s, ins.Rs2)))

	case ins.Op >= vm.ADDI && ins.Op <= vm.SLTI:
		a.set(s, ins.Rd, a.alu(ins.Op, a.val(s, ins.Rs1), constV(ins.Imm)))

	case ins.Op == vm.MOVI:
		a.set(s, ins.Rd, constV(ins.Imm))

	case ins.Op.IsLoad():
		region, choice := a.baseRegion(s, a.val(s, ins.Rs1), ins.Imm, ins.Rs1 == vm.SP)
		if region == regionUnknown {
			a.set(s, ins.Rd, taintV(choice.join(a.maxContent(s))))
		} else {
			a.set(s, ins.Rd, taintV(choice.join(s.mem[region])))
		}

	case ins.Op.IsStore():
		region, choice := a.baseRegion(s, a.val(s, ins.Rs1), ins.Imm, ins.Rs1 == vm.SP)
		a.markDirty(region)
		t := choice.join(taintOf(a.val(s, ins.Rs2)))
		if region == regionUnknown {
			// Unknown target: every region may have been written.
			for i := range s.mem {
				s.mem[i] = s.mem[i].join(t)
			}
		} else {
			s.mem[region] = s.mem[region].join(t)
		}

	case ins.Op.IsCall():
		a.set(s, vm.RA, constV(pc+1))

	case ins.Op == vm.SYSCALL:
		a.syscall(s, pc, ins.Imm)
	}
	// Branches, jumps, ret, nop: no register effects beyond the above.
}

// syscall models the kernel interface's information flow.
func (a *taintAnalysis) syscall(s *taintState, pc int64, code int64) {
	switch code {
	case vm.SysOpen:
		// The descriptor is determined by the path that named the file.
		a.set(s, vm.R1, taintV(taintOf(a.val(s, vm.R1))))
		s.fpos = TaintNone // a fresh descriptor starts at offset 0

	case vm.SysSeek:
		s.fpos = taintOf(a.val(s, vm.R2))
		a.set(s, vm.R1, taintV(s.fpos))

	case vm.SysRead:
		fd := taintOf(a.val(s, vm.R1))
		length := taintOf(a.val(s, vm.R3))
		st := a.sites[pc]
		if st == nil {
			st = &siteTaints{}
			a.sites[pc] = st
		}
		st.fd = st.fd.join(fd)
		st.pos = st.pos.join(s.fpos)
		st.length = st.length.join(length)
		st.set = true

		// The buffer now holds file content. Content located statically is
		// first-level metadata (a header); content located by other file
		// data is data-dependent.
		content := TaintHeader
		if fd.join(s.fpos).join(length) > TaintArgv {
			content = TaintData
		}
		region, _ := a.baseRegion(s, a.val(s, vm.R2), 0, false)
		a.markDirty(region)
		if region == regionUnknown {
			for i := range s.mem {
				s.mem[i] = s.mem[i].join(content)
			}
		} else {
			s.mem[region] = s.mem[region].join(content)
		}
		// The result (bytes read) reveals the file size boundary — file
		// metadata at the taint level of the content read.
		a.set(s, vm.R1, taintV(content))
		// The position advances deterministically with the read sequence, so
		// sequential reads inherit the stream's own determinism: fpos is
		// unchanged.

	case vm.SysFstat:
		region, _ := a.baseRegion(s, a.val(s, vm.R2), 0, false)
		a.markDirty(region)
		if region != regionUnknown {
			s.mem[region] = s.mem[region].join(TaintHeader)
		}
		a.set(s, vm.R1, taintV(TaintNone))

	default:
		// exit/close/write/print/sbrk/hints: result is a status code.
		a.set(s, vm.R1, taintV(TaintNone))
	}
}

// runTaint solves the taint fixpoint over the CFG and returns the per-site
// component taints plus the block-entry states (for report rendering).
func runTaint(g *CFG) (*taintAnalysis, []*taintState) {
	p := g.Prog
	a := &taintAnalysis{p: p, rg: buildRegions(p), sites: make(map[int64]*siteTaints)}
	a.dirty = make([]bool, a.rg.count())

	boundary := func() *taintState {
		s := newTaintState(a.rg.count())
		for i := range s.regs {
			s.regs[i] = constV(0) // registers start zeroed
		}
		// The machine points SP at the top of memory before start; its exact
		// value is configuration, not program text.
		s.regs[vm.SP] = taintV(TaintNone)
		for i := range s.mem {
			s.mem[i] = TaintArgv // the data section is the argument list
		}
		s.mem[a.rg.stack()] = TaintNone
		return s
	}
	transfer := func(block int, s *taintState) *taintState {
		b := g.Blocks[block]
		for pc := b.Start; pc < b.End; pc++ {
			a.transfer(s, pc, p.Text[pc])
		}
		return s
	}

	in := solveForward(g, boundary,
		func(s *taintState) *taintState { return s.clone() },
		func(dst, src *taintState) bool { return dst.join(src, a.rg, p) },
		transfer)
	return a, in
}
