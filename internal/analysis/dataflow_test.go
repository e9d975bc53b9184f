package analysis

import (
	"testing"

	"spechint/internal/vm"
)

func TestReachingDefsStraightLine(t *testing.T) {
	p := mustAssemble(t, `
.entry main
.text
main:   movi r1, 1
        movi r1, 2
        add  r2, r1, r1
        syscall exit
`)
	rd := solveReachingDefs(buildCFG(p, DefaultConfig()))

	// At the add (pc 2), only the second movi reaches r1.
	defs := rd.defsOf(2, vm.R1)
	if len(defs) != 1 || defs[0] != 1 {
		t.Fatalf("DefsOf(2, r1) = %v, want [1]", defs)
	}
	// At pc 1, only the first.
	defs = rd.defsOf(1, vm.R1)
	if len(defs) != 1 || defs[0] != 0 {
		t.Fatalf("DefsOf(1, r1) = %v, want [0]", defs)
	}
}

func TestReachingDefsMergeAtJoin(t *testing.T) {
	p := mustAssemble(t, diamondSrc)
	rd := solveReachingDefs(buildCFG(p, DefaultConfig()))

	// Both arms define r2 (pc 2 and pc 4); both reach the join's add (pc 5).
	defs := rd.defsOf(p.Symbols["join"], vm.R2)
	if len(defs) != 2 || defs[0] != 2 || defs[1] != 4 {
		t.Fatalf("DefsOf(join, r2) = %v, want [2 4]", defs)
	}
}

func TestReachingDefsFlowIntoCallee(t *testing.T) {
	p := mustAssemble(t, `
.entry main
.text
main:   movi r1, 7
        call fn
        syscall exit
fn:     add  r2, r1, r1
        ret
`)
	rd := solveReachingDefs(buildCFG(p, DefaultConfig()))
	fn := p.Symbols["fn"]
	defs := rd.defsOf(fn, vm.R1)
	if len(defs) != 1 || defs[0] != 0 {
		t.Fatalf("DefsOf(fn, r1) = %v, want the caller's movi at 0", defs)
	}
}

func TestReachingDefsZeroRegister(t *testing.T) {
	p := mustAssemble(t, `
.entry main
.text
main:   add  r0, r1, r2
        syscall exit
`)
	rd := solveReachingDefs(buildCFG(p, DefaultConfig()))
	if defs := rd.defsOf(1, vm.R0); defs != nil {
		t.Fatalf("r0 has definitions %v; the zero register must have none", defs)
	}
	// And the write to r0 is not a definition at all.
	for _, d := range rd.Defs() {
		if d.Reg == vm.R0 {
			t.Fatalf("definition of r0 recorded at %d", d.PC)
		}
	}
}

func TestReachingDefsSyscallDefinesR1(t *testing.T) {
	p := mustAssemble(t, `
.entry main
.text
main:   movi r1, 0
        syscall read
        add  r2, r1, r1
        syscall exit
`)
	rd := solveReachingDefs(buildCFG(p, DefaultConfig()))
	defs := rd.defsOf(2, vm.R1)
	if len(defs) != 1 || defs[0] != 1 {
		t.Fatalf("DefsOf(2, r1) = %v, want the syscall at 1 (result clobbers r1)", defs)
	}
}

// Defs returns every definition site in the program.
func (rd *ReachingDefs) Defs() []Def { return append([]Def(nil), rd.defs...) }
