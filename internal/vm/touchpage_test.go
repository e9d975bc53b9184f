package vm

import "testing"

// touchPage returns early on the page it touched last in the same Run slice.
// Two machines run the same program in the same slices, one with the skip
// forced off, and must report the same paging statistics after every slice —
// for accesses that stay on one page, alternate between two, and come back to
// a page after more than ReclaimGap cycles of something else, at slice budgets
// from one cycle (every instruction its own slice, nothing to skip) to one
// slice for the whole program.
func TestTouchPageSkipIsInvisible(t *testing.T) {
	const iters = 150
	loop := func(body ...Instr) *Program {
		text := []Instr{
			{Op: MOVI, Rd: 10, Imm: 64},         // page 0
			{Op: MOVI, Rd: 11, Imm: 8192 + 128}, // page 1
			{Op: MOVI, Rd: 12, Imm: 0},          // i
			{Op: MOVI, Rd: 13, Imm: iters},
		}
		top := int64(len(text))
		text = append(text, body...)
		text = append(text,
			Instr{Op: ADDI, Rd: 12, Rs1: 12, Imm: 1},
			Instr{Op: BLT, Rs1: 12, Rs2: 13, Imm: top},
			Instr{Op: MOVI, Rd: R1, Imm: 0},
			Instr{Op: SYSCALL, Imm: SysExit},
		)
		return &Program{Text: text, DataSize: 3 * 8192}
	}
	var idle []Instr // > ReclaimGap cycles touching nothing
	for i := 0; i < 40; i++ {
		idle = append(idle, Instr{Op: ADDI, Rd: 14, Rs1: 14, Imm: 1})
	}
	progs := map[string]*Program{
		"same-page": loop(
			Instr{Op: LDW, Rd: 15, Rs1: 10, Imm: 0},
			Instr{Op: STB, Rs1: 10, Rs2: 15, Imm: 9},
			Instr{Op: LDB, Rd: 15, Rs1: 10, Imm: 4000},
		),
		"alternating": loop(
			Instr{Op: LDW, Rd: 15, Rs1: 10, Imm: 0},
			Instr{Op: LDW, Rd: 15, Rs1: 11, Imm: 0},
			Instr{Op: STW, Rs1: 10, Rs2: 15, Imm: 8},
			Instr{Op: STW, Rs1: 11, Rs2: 15, Imm: 8},
			Instr{Op: STW, Rs1: 11, Rs2: 15, Imm: 16},
		),
		"gap-crossing": loop(append(append([]Instr{
			{Op: LDW, Rd: 15, Rs1: 10, Imm: 0},
			{Op: LDW, Rd: 15, Rs1: 10, Imm: 8}},
			idle...),
			Instr{Op: LDW, Rd: 15, Rs1: 10, Imm: 0},
			Instr{Op: LDW, Rd: 15, Rs1: 11, Imm: 0},
			Instr{Op: STW, Rs1: 10, Rs2: 15, Imm: 8},
		)...),
	}
	cfg := testCfg()
	cfg.ReclaimGap = 30
	for name, p := range progs {
		reclaims := int64(0)
		for _, budget := range []int64{1, 2, 3, 7, 10, 29, 31, 100, 1000, 10_000} {
			skip, every := mustMachine(t, p, cfg), mustMachine(t, p, cfg)
			every.touchEvery = true
			ts, te := skip.NewThread("orig", Normal), every.NewThread("orig", Normal)
			for slice := 0; ; slice++ {
				us, rs := skip.Run(ts, budget)
				ue, re := every.Run(te, budget)
				if us != ue || rs != re || skip.Pages() != every.Pages() {
					t.Fatalf("%s budget %d slice %d: skipping %d cycles %v %+v, touching every access %d cycles %v %+v",
						name, budget, slice, us, rs, skip.Pages(), ue, re, every.Pages())
				}
				if rs == StopHalted {
					break
				}
				if rs != StopBudget {
					t.Fatalf("%s budget %d slice %d: stopped with %v", name, budget, slice, rs)
				}
			}
			reclaims += skip.Pages().Reclaims
			if want := map[string]int64{"same-page": 1, "alternating": 2, "gap-crossing": 2}[name]; skip.Pages().Touched != want {
				t.Fatalf("%s budget %d: %+v, want %d pages touched", name, budget, skip.Pages(), want)
			}
		}
		if name == "gap-crossing" && reclaims == 0 {
			t.Errorf("%s: no page was ever reclaimed: the pattern does not cross ReclaimGap", name)
		}
		t.Log(name, "reclaims over all budgets:", reclaims)
	}
}

func mustMachine(t *testing.T, p *Program, cfg Config) *Machine {
	t.Helper()
	m, err := NewMachine(p, &scriptOS{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
