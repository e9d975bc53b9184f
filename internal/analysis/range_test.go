package analysis

import (
	"testing"

	"spechint/internal/asm"
	"spechint/internal/vm"
)

func TestIntervalOps(t *testing.T) {
	if got := span(1, 5).join(span(3, 9)); got != span(1, 9) {
		t.Errorf("join = %v", got)
	}
	if got := span(1, 5).meet(span(3, 9)); got != span(3, 5) {
		t.Errorf("meet = %v", got)
	}
	// Disjoint meet collapses to the receiver (refinement is advisory).
	if got := span(1, 2).meet(span(5, 9)); got != span(1, 2) {
		t.Errorf("empty meet = %v, want receiver", got)
	}
	// Infinite bounds are canonical: the ignored finite field is zeroed, so
	// two representations of the same interval compare equal (the solver
	// uses struct equality as its change detector).
	a := Interval{Lo: 0, Hi: 200, HiInf: true}.norm()
	b := Interval{Lo: 0, Hi: 300, HiInf: true}.norm()
	if a != b {
		t.Errorf("normalized +inf intervals differ: %v vs %v", a, b)
	}
	if got := top().join(span(1, 2)); got != top() {
		t.Errorf("Top join = %v", got)
	}
	if v, ok := point(42).constant(); !ok || v != 42 {
		t.Errorf("Point Const = %d, %v", v, ok)
	}
}

func TestIntervalALU(t *testing.T) {
	cases := []struct {
		op   vm.Op
		x, y Interval
		want Interval
	}{
		{vm.ADD, span(1, 3), span(10, 20), span(11, 23)},
		{vm.SUB, span(1, 3), span(10, 20), span(-19, -7)},
		{vm.MUL, span(0, 5), span(2, 4), span(0, 20)},
		{vm.MUL, span(-2, 3), span(4, 4), span(-8, 12)},
		{vm.SHLI, span(1, 3), point(4), span(16, 48)},
		{vm.SHRI, span(16, 48), point(4), span(1, 3)},
		{vm.ANDI, span(0, 100), point(7), span(0, 7)},
		{vm.ANDI, span(0, 100), point(-8192), span(0, 100)},
		{vm.MOD, top(), point(10), span(-9, 9)},
		{vm.SLT, top(), top(), span(0, 1)},
	}
	for _, c := range cases {
		if got := itvALU(c.op, c.x, c.y); got != c.want {
			t.Errorf("%v(%v, %v) = %v, want %v", c.op, c.x, c.y, got, c.want)
		}
	}
}

// TestRangeBranchRefinement mirrors XDataSlice's header sanity check: a
// dirty-buffer load is unbounded until two guards pin it, after which the
// derived offset is finite even inside a widened loop.
func TestRangeBranchRefinement(t *testing.T) {
	src := `
.data
buf: .space 64
.text
main:
    movi r1, 0
    movi r2, buf
    movi r3, 8
    syscall read
    ldw  r11, buf
    movi r2, 1
    blt  r11, r2, fail
    movi r2, 100
    blt  r2, r11, fail
    movi r17, 0
loop:
    bge  r17, r11, done
    mul  r18, r17, r11
    movi r2, 0
    syscall seek
    addi r17, r17, 1
    jmp  loop
fail:
    movi r1, -1
    syscall exit
done:
    movi r1, 0
    syscall exit
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	g := buildCFG(p)
	ra := solveRanges(g, nil)
	var seekPC int64 = -1
	for pc, ins := range p.Text {
		if ins.Op == vm.SYSCALL && ins.Imm == vm.SysSeek {
			seekPC = int64(pc)
		}
	}
	if seekPC < 0 {
		t.Fatal("no seek in program")
	}
	// r11 was refined to [1,100] by the guards, r17 to [0,99] by the loop
	// test, so r18 = r17*r11 is finite despite the loop widening r17 at the
	// header.
	if got := ra.At(seekPC, 11); got != span(1, 100) {
		t.Errorf("r11 at seek = %v, want [1,100]", got)
	}
	if got := ra.At(seekPC, 17); got != span(0, 99) {
		t.Errorf("r17 at seek = %v, want [0,99]", got)
	}
	if got := ra.At(seekPC, 18); !got.finite() || got.Lo < 0 || got.Hi != 99*100 {
		t.Errorf("r18 at seek = %v, want finite [0,9900]", got)
	}
}

// TestRangeWidensUnboundedCounter checks termination and soundness on a loop
// whose counter has no static bound: the fixpoint must converge with the
// counter widened to +inf, not diverge.
func TestRangeWidensUnboundedCounter(t *testing.T) {
	src := `
.data
v: .word 3
.text
main:
    movi r20, 0
loop:
    addi r20, r20, 1
    ldw  r9, v
    bne  r20, r9, loop
    movi r2, 0
    syscall seek
    syscall exit
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	g := buildCFG(p)
	ra := solveRanges(g, nil)
	seekPC := int64(len(p.Text) - 2)
	got := ra.At(seekPC, 20)
	if !got.HiInf {
		t.Errorf("r20 after unbounded loop = %v, want +inf upper bound", got)
	}
	if got.LoInf || got.Lo < 1 {
		t.Errorf("r20 after loop = %v, want lower bound >= 1", got)
	}
}

// TestRangeReadSites tracks the file position through open/seek/read chains.
func TestRangeReadSites(t *testing.T) {
	src := `
.data
buf: .space 64
path: .asciz "f"
.text
main:
    movi r1, path
    movi r2, 0
    syscall open
    mov  r10, r1
    mov  r1, r10
    movi r2, buf
    movi r3, 16
    syscall read
    mov  r1, r10
    movi r2, 4096
    movi r3, 0
    syscall seek
    mov  r1, r10
    movi r2, buf
    movi r3, 32
    syscall read
    syscall exit
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	g := buildCFG(p)
	ra := solveRanges(g, nil)
	var reads []int64
	for pc, ins := range p.Text {
		if ins.Op == vm.SYSCALL && ins.Imm == vm.SysRead {
			reads = append(reads, int64(pc))
		}
	}
	if len(reads) != 2 {
		t.Fatalf("reads = %v", reads)
	}
	if iv, ok := ra.siteBound(reads[0]); !ok || iv != point(0) {
		t.Errorf("first read bound = %v, %v; want [0,0]", iv, ok)
	}
	if iv, ok := ra.siteBound(reads[1]); !ok || iv != point(4096) {
		t.Errorf("seeked read bound = %v, %v; want [4096,4096]", iv, ok)
	}
}

// At recomputes the interval of reg just before pc executes.
func (ra *Ranges) At(pc int64, reg uint8) Interval {
	block := ra.g.blockOf(pc)
	if block < 0 || ra.in[block] == nil {
		return top()
	}
	s := ra.in[block].clone()
	b := ra.g.Blocks[block]
	for p := b.Start; p < b.End && p < pc; p++ {
		ra.transfer(s, p, ra.g.Prog.Text[p])
	}
	return ra.val(s, reg)
}
