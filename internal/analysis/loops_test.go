package analysis

import (
	"testing"

	"spechint/internal/asm"
)

func mustCFG(t *testing.T, src string) *CFG {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return buildCFG(p, Config{})
}

const countedLoopSrc = `
.data
v: .word 7
.text
main:
    movi r20, 0
    movi r19, 10
    movi r22, 0
loop:
    bge  r20, r19, done
    addi r22, r22, 3
    addi r20, r20, 1
    jmp  loop
done:
    movi r1, 0
    syscall exit
`

func TestFindLoopsCounted(t *testing.T) {
	g := mustCFG(t, countedLoopSrc)
	li := findLoops(g)
	if len(li.Loops) != 1 {
		t.Fatalf("loops = %d, want 1 (%s)", len(li.Loops), li.summary())
	}
	l := li.Loops[0]
	if len(l.Tails) != 1 {
		t.Errorf("tails = %v, want one", l.Tails)
	}
	// Both r20 (the counter) and r22 (the accumulator) step by a constant
	// once per iteration.
	if _, ok := l.iv(20); !ok {
		t.Errorf("r20 not recognized as induction variable: %+v", l.IVs)
	}
	iv, ok := l.iv(22)
	if !ok || iv.Step != 3 {
		t.Errorf("r22 IV = %+v ok=%v, want step 3", iv, ok)
	}

	n, ok := li.tripCountWith(0,
		func(iv IndVar) (int64, bool) {
			ins := g.Prog.Text[iv.InitPC]
			return ins.Imm, true // both inits are movi
		},
		func(pc int64, reg uint8) (int64, bool) {
			if reg == 19 {
				return 10, true
			}
			return 0, false
		})
	if !ok || n != 10 {
		t.Errorf("trip count = %d ok=%v, want 10", n, ok)
	}
}

func TestFindLoopsNested(t *testing.T) {
	g := mustCFG(t, `
.text
main:
    movi r20, 0
outer:
    movi r21, 0
inner:
    addi r21, r21, 1
    movi r9, 5
    blt  r21, r9, inner
    addi r20, r20, 1
    movi r9, 3
    blt  r20, r9, outer
    syscall exit
`)
	li := findLoops(g)
	if len(li.Loops) != 2 {
		t.Fatalf("loops = %d, want 2 (%s)", len(li.Loops), li.summary())
	}
	// Loops are sorted by header PC: outer first.
	outer, inner := li.Loops[0], li.Loops[1]
	if len(outer.Blocks) <= len(inner.Blocks) {
		t.Errorf("outer body %d blocks, inner %d: want outer larger", len(outer.Blocks), len(inner.Blocks))
	}
	if _, ok := outer.iv(20); !ok {
		t.Errorf("outer loop should carry IV r20: %+v", outer.IVs)
	}
	if _, ok := inner.iv(21); !ok {
		t.Errorf("inner loop should carry IV r21: %+v", inner.IVs)
	}
	// The inner accumulator steps twice per outer iteration (reset by the
	// movi), so it is not an outer IV; and InnermostAt resolves nesting.
	innerPC := inner.Header
	start := g.Blocks[innerPC].Start
	if got := li.InnermostAt(start); got != 1 {
		t.Errorf("InnermostAt(inner header) = %d, want 1", got)
	}
}

func TestBodyReachStopsAtBackEdge(t *testing.T) {
	g := mustCFG(t, countedLoopSrc)
	li := findLoops(g)
	l := li.Loops[0]
	// From the body block, intra-iteration reachability must not wrap
	// through the back edge into the header again.
	body := -1
	for _, b := range l.Blocks {
		if b != l.Header {
			body = b
			break
		}
	}
	reach := li.bodyReach(0, body, -1, nil)
	if reach[l.Header] {
		t.Errorf("BodyReach wrapped through the back edge into the header")
	}
}

func TestTripCountRejectsDataExit(t *testing.T) {
	// A loop with a second, data-dependent exit that is not abort-only: the
	// trip count must be refused.
	g := mustCFG(t, `
.data
v: .word 7
.text
main:
    movi r20, 0
    movi r19, 10
loop:
    bge  r20, r19, done
    ldw  r9, v
    beq  r9, r0, done
    addi r20, r20, 1
    jmp  loop
done:
    movi r1, 0
    syscall exit
`)
	li := findLoops(g)
	if len(li.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(li.Loops))
	}
	_, ok := li.tripCountWith(0,
		func(iv IndVar) (int64, bool) { return g.Prog.Text[iv.InitPC].Imm, true },
		func(pc int64, reg uint8) (int64, bool) {
			if reg == 19 {
				return 10, true
			}
			return 0, false
		})
	if ok {
		t.Errorf("trip count accepted despite an early data-dependent exit to live code")
	}
}

func TestTripCountAcceptsAbortExit(t *testing.T) {
	// Same shape, but the early exit only aborts: the count stays exact
	// under the run-completes assumption.
	g := mustCFG(t, `
.data
v: .word 7
.text
main:
    movi r20, 0
    movi r19, 10
loop:
    bge  r20, r19, done
    ldw  r9, v
    beq  r9, r0, bad
    addi r20, r20, 1
    jmp  loop
bad:
    movi r1, -1
    syscall exit
done:
    movi r1, 0
    syscall exit
`)
	li := findLoops(g)
	n, ok := li.tripCountWith(0,
		func(iv IndVar) (int64, bool) { return g.Prog.Text[iv.InitPC].Imm, true },
		func(pc int64, reg uint8) (int64, bool) {
			if reg == 19 {
				return 10, true
			}
			return 0, false
		})
	if !ok || n != 10 {
		t.Errorf("trip count = %d ok=%v, want 10 (abort-only early exit)", n, ok)
	}
}

func TestFindLoopsDownCounter(t *testing.T) {
	// Agrep-style down counter: init from data, step -1, exit on == 0.
	g := mustCFG(t, `
.text
main:
    movi r20, 6
loop:
    beq  r20, r0, done
    addi r20, r20, -1
    jmp  loop
done:
    syscall exit
`)
	li := findLoops(g)
	if len(li.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(li.Loops))
	}
	iv, ok := li.Loops[0].iv(20)
	if !ok || iv.Step != -1 {
		t.Fatalf("r20 IV = %+v ok=%v, want step -1", iv, ok)
	}
	n, ok := li.tripCountWith(0,
		func(iv IndVar) (int64, bool) { return 6, true },
		func(pc int64, reg uint8) (int64, bool) { return 0, false })
	if !ok || n != 6 {
		t.Errorf("trip count = %d ok=%v, want 6", n, ok)
	}
}

// InnermostAt returns the index (into Loops) of the innermost loop containing
// the block of pc, or -1.
func (li *LoopInfo) InnermostAt(pc int64) int {
	b := li.G.blockOf(pc)
	if b < 0 {
		return -1
	}
	return li.inner[b]
}
