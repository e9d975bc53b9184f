package analysis

import (
	"strings"
	"testing"

	"spechint/internal/spechint"
	"spechint/internal/vm"
)

// lintSrc exercises every transform feature: checked memory, a removed output
// call, a recognized jump table, a direct call, and a return.
const lintSrc = `
.entry main
.data
tbl:  .jumptable absolute c0, c1
buf:  .space 64
msg:  .asciz "hi"
.text
main: movi r5, buf
      ldw  r6, 0(r5)
      stw  r6, 8(r5)
      beq  r6, r0, skip
      movi r1, msg
      syscall print
skip: shli r10, r6, 3
      ldw  r11, tbl(r10)
      jr   r11
c0:   nop
c1:   call fn
      syscall exit
fn:   ret
`

func transformSrc(t *testing.T, src string, opt spechint.Options) *vm.Program {
	t.Helper()
	p := mustAssemble(t, src)
	out, _, err := spechint.Transform(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A faithful transform of every app, under both stack-copy settings, must
// produce zero findings.
func TestLintCleanOnAllApps(t *testing.T) {
	for _, b := range buildAllBundles(t) {
		for _, stackOpt := range []bool{true, false} {
			opt := spechint.DefaultOptions()
			opt.StackCopyOptimization = stackOpt
			out, _, err := spechint.Transform(b.Original, opt)
			if err != nil {
				t.Fatalf("%v: %v", b.App, err)
			}
			if fs := Lint(out, opt); len(fs) != 0 {
				t.Errorf("%v (stackOpt=%v): %d findings:\n%s",
					b.App, stackOpt, len(fs), FormatFindings(out, fs))
			}
		}
	}
}

func TestLintCleanOnSynthetic(t *testing.T) {
	for _, stackOpt := range []bool{true, false} {
		opt := spechint.DefaultOptions()
		opt.StackCopyOptimization = stackOpt
		out := transformSrc(t, lintSrc, opt)
		if fs := Lint(out, opt); len(fs) != 0 {
			t.Errorf("stackOpt=%v: findings:\n%s", stackOpt, FormatFindings(out, fs))
		}
	}
}

func TestLintRejectsUntransformed(t *testing.T) {
	p := mustAssemble(t, diamondSrc)
	fs := Lint(p, spechint.DefaultOptions())
	if len(fs) != 1 || fs[0].Check != LintShape {
		t.Fatalf("untransformed program: got %v, want one shadow-shape finding", fs)
	}
}

// Each hand-corrupted shadow must fire its specific check at the right PC.
func TestLintCorruptions(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(p *vm.Program, n int64) int64 // returns the expected finding PC
		want    LintCheck
	}{
		{"unchecked load in shadow", func(p *vm.Program, n int64) int64 {
			p.Text[n+1].Op = vm.LDW // was ldw.s buf
			return n + 1
		}, LintUncheckedMem},
		{"unchecked store in shadow", func(p *vm.Program, n int64) int64 {
			p.Text[n+2].Op = vm.STW // was stw.s buf
			return n + 2
		}, LintUncheckedMem},
		{"branch escaping to original text", func(p *vm.Program, n int64) int64 {
			p.Text[n+3].Imm -= n // retarget beq at the original-text skip
			return n + 3
		}, LintEscape},
		{"call escaping to original text", func(p *vm.Program, n int64) int64 {
			p.Text[n+10].Imm -= n // retarget call fn at the original fn
			return n + 10
		}, LintEscape},
		{"surviving print call", func(p *vm.Program, n int64) int64 {
			p.Text[n+5] = vm.Instr{Op: vm.SYSCALL, Imm: vm.SysPrint} // un-remove it
			return n + 5
		}, LintOutput},
		{"unrewritten jump table", func(p *vm.Program, n int64) int64 {
			p.Text[n+7].Op = vm.LDW                    // revert the table load
			p.Text[n+8] = vm.Instr{Op: vm.JR, Rs1: 11} // revert jtr -> jr
			return n + 8
		}, LintJumpTable},
		{"corrupt jump-table entry", func(p *vm.Program, n int64) int64 {
			for b := 0; b < 8; b++ { // first table entry -> far outside text
				p.Data[b] = 0xFF
			}
			return n + 8 // reported at the jtr consuming the table
		}, LintJumpTable},
		{"unrouted return", func(p *vm.Program, n int64) int64 {
			p.Text[n+12].Op = vm.RET // was ret.h
			return n + 12
		}, LintIndirect},
		{"missing shadow symbol", func(p *vm.Program, n int64) int64 {
			delete(p.Symbols, "fn$shadow")
			return p.Symbols["fn"]
		}, LintShape},
		{"speculative op in original text", func(p *vm.Program, n int64) int64 {
			p.Text[1].Op = vm.LDWS
			return 1
		}, LintOrigText},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := spechint.DefaultOptions()
			out := transformSrc(t, lintSrc, opt)
			wantPC := c.corrupt(out, out.OrigTextLen)
			fs := Lint(out, opt)
			if len(fs) == 0 {
				t.Fatalf("corruption undetected")
			}
			for _, f := range fs {
				if f.Check == c.want && f.PC == wantPC {
					return
				}
			}
			t.Fatalf("no %s finding at pc %d; got:\n%s", c.want, wantPC, FormatFindings(out, fs))
		})
	}
}

func TestFormatFindingsShowsContext(t *testing.T) {
	opt := spechint.DefaultOptions()
	out := transformSrc(t, lintSrc, opt)
	out.Text[out.OrigTextLen+2].Op = vm.STW
	fs := Lint(out, opt)
	s := FormatFindings(out, fs)
	if !strings.Contains(s, "unchecked-memory") {
		t.Fatalf("missing check name:\n%s", s)
	}
	if !strings.Contains(s, "=>") {
		t.Fatalf("missing disassembly marker:\n%s", s)
	}
	if !strings.Contains(s, "main$shadow") {
		t.Fatalf("missing shadow label resolution:\n%s", s)
	}
}

// loopBackEdgeSrc is a transform input with a counted loop whose back edge
// lands on the loop header, plus a conditional early exit from the body:
// lint must accept the shadowed loop (all targets inside shadow text).
const loopBackEdgeSrc = `
.entry main
.data
buf: .space 64
.text
main: movi r20, 0
      movi r19, 10
loop: bge  r20, r19, done
      movi r5, buf
      ldw  r6, 0(r5)
      beq  r6, r0, early
      addi r20, r20, 1
      jmp  loop
early: addi r20, r20, 2
      jmp  loop
done: syscall exit
`

// irreducibleSrc jumps into the middle of a loop body from outside it (a
// goto into a loop): the loop is irreducible, the classic stress case for
// control-flow tooling. The transform must still shadow it and lint must
// verify the shadow without findings.
const irreducibleSrc = `
.entry main
.data
buf: .space 64
.text
main: movi r20, 0
      movi r5, buf
      ldw  r6, 0(r5)
      beq  r6, r0, body
head: addi r20, r20, 1
body: addi r20, r20, 2
      movi r9, 40
      blt  r20, r9, head
      syscall exit
`

func TestLintLoopBackEdges(t *testing.T) {
	for _, src := range []string{loopBackEdgeSrc, irreducibleSrc} {
		opt := spechint.DefaultOptions()
		out := transformSrc(t, src, opt)
		if fs := Lint(out, opt); len(fs) != 0 {
			t.Errorf("clean loop program flagged:\n%s", FormatFindings(out, fs))
		}
		// Retarget the back edge to the original-text header: that escape
		// must be caught.
		n := out.OrigTextLen
		var fixed bool
		for pc := n; pc < 2*n; pc++ {
			ins := out.Text[pc]
			if (ins.Op.IsBranch() || ins.Op == vm.JMP) && ins.Imm < pc && ins.Imm >= n {
				out.Text[pc].Imm -= n
				fixed = true
				break
			}
		}
		if !fixed {
			t.Fatal("no shadow back edge found to corrupt")
		}
		fs := Lint(out, opt)
		found := false
		for _, f := range fs {
			if f.Check == LintEscape {
				found = true
			}
		}
		if !found {
			t.Errorf("escaped back edge undetected:\n%s", FormatFindings(out, fs))
		}
	}
}

// TestLintIrreducibleLoopShape: the CFG layer itself must cope with the
// goto-into-loop shape — findLoops must not claim the irreducible cycle as a
// natural loop (its entry block does not dominate the body).
func TestLintIrreducibleLoopShape(t *testing.T) {
	g := mustCFG(t, irreducibleSrc)
	li := findLoops(g)
	for _, l := range li.Loops {
		for _, b := range l.Blocks {
			if !dominates(li.Idom, l.Header, b) {
				t.Errorf("loop header %d does not dominate body block %d: irreducible cycle misclassified", l.Header, b)
			}
		}
	}
}

// TestLintFindingsDeterministic: lint findings (including the symbol-table
// shape pass, which walks a map) must come out in the same order every run.
func TestLintFindingsDeterministic(t *testing.T) {
	var prev string
	for trial := 0; trial < 8; trial++ {
		opt := spechint.DefaultOptions()
		out := transformSrc(t, lintSrc, opt)
		// Strip several shadow twins so the symbol pass emits multiple
		// findings whose order depends on iteration order.
		for _, sym := range []string{"fn", "main", "skip", "c0", "c1"} {
			delete(out.Symbols, sym+"$shadow")
		}
		got := FormatFindings(out, Lint(out, opt))
		if trial > 0 && got != prev {
			t.Fatalf("findings differ between runs:\n--- run %d\n%s\n--- previous\n%s", trial, got, prev)
		}
		prev = got
	}
}
