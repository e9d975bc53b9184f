package analysis

import (
	"fmt"
	"testing"

	"spechint/internal/asm"
	"spechint/internal/vm"
)

func mustAssemble(t *testing.T, src string) *vm.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// diamond: entry splits on a branch and rejoins.
const diamondSrc = `
.entry main
.text
main:   movi r1, 1
        beq  r1, r0, left
        movi r2, 2
        jmp  join
left:   movi r2, 3
join:   add  r3, r1, r2
        syscall exit
`

func TestBuildCFGDiamond(t *testing.T) {
	p := mustAssemble(t, diamondSrc)
	g := buildCFG(p)

	// Blocks: [main..beq] [movi r2,2; jmp] [left] [join..exit]
	if len(g.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4: %+v", len(g.Blocks), g.Blocks)
	}
	b0 := g.Blocks[g.blockOf(0)]
	if len(b0.Succs) != 2 {
		t.Fatalf("entry block succs = %v, want 2", b0.Succs)
	}
	join := g.blockOf(p.Symbols["join"])
	for _, s := range []int64{2, p.Symbols["left"]} {
		sb := g.Blocks[g.blockOf(s)]
		if len(sb.Succs) != 1 || sb.Succs[0] != join {
			t.Errorf("block at %d succs = %v, want [%d]", s, sb.Succs, join)
		}
	}
	// The exit block has no successors: syscall exit terminates.
	jb := g.Blocks[join]
	if len(jb.Succs) != 0 {
		t.Errorf("join/exit block succs = %v, want none", jb.Succs)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	p := mustAssemble(t, diamondSrc)
	g := buildCFG(p)
	idom := g.dominators()

	entry := g.blockOf(0)
	join := g.blockOf(p.Symbols["join"])
	left := g.blockOf(p.Symbols["left"])

	if idom[entry] != entry {
		t.Errorf("idom(entry) = %d, want itself", idom[entry])
	}
	// Neither arm dominates the join; the entry does.
	if idom[join] != entry {
		t.Errorf("idom(join) = %d, want entry %d", idom[join], entry)
	}
	if !dominates(idom, entry, join) {
		t.Error("entry should dominate join")
	}
	if dominates(idom, left, join) {
		t.Error("left arm must not dominate join")
	}
}

func TestCFGCallEdges(t *testing.T) {
	p := mustAssemble(t, `
.entry main
.text
main:   call fn
        call fn
        syscall exit
fn:     movi r1, 1
        ret
`)
	g := buildCFG(p)
	calls := g.calls()
	if len(calls) != 2 {
		t.Fatalf("got %d call sites, want 2", len(calls))
	}
	fn := p.Symbols["fn"]
	for _, c := range calls {
		if c.Target != fn {
			t.Errorf("call at %d targets %d, want %d", c.PC, c.Target, fn)
		}
	}
	cg := g.CallGraph()
	if len(cg[fn]) != 2 {
		t.Errorf("call graph for fn = %v, want 2 callers", cg[fn])
	}
	// fn's body must be reachable (via the call edge).
	reach := g.reachable()
	if !reach[g.blockOf(fn)] {
		t.Error("callee not reachable from entry")
	}
	// The block ending in ret has no successors but Returns set.
	rb := g.Blocks[g.blockOf(fn)]
	if !rb.Returns || len(rb.Succs) != 0 {
		t.Errorf("ret block: Returns=%v Succs=%v", rb.Returns, rb.Succs)
	}
}

func TestCFGJumpTableEdges(t *testing.T) {
	p := mustAssemble(t, `
.entry main
.data
tbl:    .jumptable absolute case0, case1, case2
.text
main:   movi r1, tbl
        ldw  r2, 0(r1)
        jr   r2
case0:  syscall exit
case1:  syscall exit
case2:  syscall exit
`)
	g := buildCFG(p)
	jb := g.Blocks[g.blockOf(2)] // the jr
	if len(jb.Succs) != 3 {
		t.Fatalf("jump-table block succs = %v, want 3 cases", jb.Succs)
	}
	if jb.IndirectExit {
		t.Error("recognized table jump marked as unresolved indirect")
	}
	reach := g.reachable()
	for _, label := range []string{"case0", "case1", "case2"} {
		if !reach[g.blockOf(p.Symbols[label])] {
			t.Errorf("%s not reachable through table edge", label)
		}
	}
}

func TestCFGUnresolvedIndirect(t *testing.T) {
	p := mustAssemble(t, `
.entry main
.text
main:   movi r1, 3
        jr   r1
        syscall exit
        syscall exit
`)
	g := buildCFG(p)
	jb := g.Blocks[g.blockOf(1)]
	if !jb.IndirectExit {
		t.Error("jr through a non-table value should be an unresolved indirect exit")
	}
	if len(jb.Succs) != 0 {
		t.Errorf("unresolved jr has succs %v", jb.Succs)
	}
}

// Corrupt branch targets must drop edges, not crash the builder.
func TestCFGTruncatedTarget(t *testing.T) {
	p := mustAssemble(t, `
.entry main
.text
main:   movi r1, 1
        beq  r1, r0, main
        syscall exit
`)
	p.Text[1].Imm = 9999 // out of range
	g := buildCFG(p)
	bb := g.Blocks[g.blockOf(1)]
	if len(bb.Succs) != 1 { // only the fall-through survives
		t.Errorf("corrupt branch succs = %v, want fall-through only", bb.Succs)
	}
}

func TestCFGOnTransformedApps(t *testing.T) {
	for _, b := range buildAllBundles(t) {
		g := buildCFG(b.Transformed)
		if err := checkCFGWellFormed(g); err != nil {
			t.Errorf("%v transformed: %v", b.App, err)
		}
		// Every original-text block index must be mirrored in range: the
		// shadow doubles the text, so there are at least as many blocks.
		og := buildCFG(b.Original)
		if len(g.Blocks) < len(og.Blocks) {
			t.Errorf("%v: transformed CFG has fewer blocks (%d) than original (%d)",
				b.App, len(g.Blocks), len(og.Blocks))
		}
	}
}

func checkCFGWellFormed(g *CFG) error {
	errf := fmt.Errorf
	for bi, b := range g.Blocks {
		if b.Start >= b.End {
			return errf("block %d empty [%d,%d)", bi, b.Start, b.End)
		}
		for pc := b.Start; pc < b.End; pc++ {
			if g.blockOf(pc) != bi {
				return errf("pc %d maps to block %d, inside block %d", pc, g.blockOf(pc), bi)
			}
		}
		for _, s := range b.Succs {
			if s < 0 || s >= len(g.Blocks) {
				return errf("block %d has bad successor %d", bi, s)
			}
			found := false
			for _, p := range g.Blocks[s].Preds {
				if p == bi {
					found = true
				}
			}
			if !found {
				return errf("edge %d->%d missing from preds", bi, s)
			}
		}
	}
	return nil
}

// CallGraph returns the direct call graph: callee entry PC -> the PCs of the
// call instructions targeting it.
func (g *CFG) CallGraph() map[int64][]int64 {
	cg := make(map[int64][]int64)
	for _, c := range g.calls() {
		cg[c.Target] = append(cg[c.Target], c.PC)
	}
	return cg
}
