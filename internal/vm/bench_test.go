package vm

import "testing"

// stepProg is a tight ALU/load/store/branch loop: r10 counts down from Imm,
// each iteration does arithmetic plus a word store/load pair — the mix the
// interpreter spends its time on under the benchmark applications.
func stepProg(iters int64) *Program {
	return prog([]Instr{
		{Op: MOVI, Rd: 10, Imm: iters},
		{Op: MOVI, Rd: 11, Imm: 512}, // buffer base in the data segment
		// loop:
		{Op: ADDI, Rd: 12, Rs1: 12, Imm: 3},
		{Op: MUL, Rd: 13, Rs1: 12, Rs2: 12},
		{Op: STW, Rs1: 11, Rs2: 13, Imm: 0},
		{Op: LDW, Rd: 14, Rs1: 11, Imm: 0},
		{Op: XOR, Rd: 12, Rs1: 12, Rs2: 14},
		{Op: ADDI, Rd: 10, Rs1: 10, Imm: -1},
		{Op: BNE, Rs1: 10, Rs2: R0, Imm: 2},
		{Op: JMP, Imm: 9}, // spin here when done; the budget stops the run
	})
}

// BenchmarkVMStep measures the interpreter's per-instruction cost on the
// hot ALU/memory loop. Each b.N step is one instruction, counted from
// th.Instrs: the loop retires 7 instructions in 9 cycles (MUL costs 3), so a
// cycle is not an instruction. Slices are budget-bound, 4096 cycles at most;
// the loop must report 0 allocs/op — the step loop has no closures and no
// per-slice heap state.
func BenchmarkVMStep(b *testing.B) {
	m, err := NewMachine(stepProg(1<<62), &scriptOS{}, testCfg())
	if err != nil {
		b.Fatal(err)
	}
	th := m.NewThread("bench", Normal)
	b.ReportAllocs()
	b.ResetTimer()
	for end := th.Instrs + int64(b.N); th.Instrs < end; {
		if _, stop := m.Run(th, min(4096, end-th.Instrs)); stop != StopBudget {
			b.Fatalf("stop = %v (err %v)", stop, th.Err)
		}
	}
}

// BenchmarkVMRunSlice measures whole Run invocations with a short budget,
// the scheduler's calling pattern: entry/exit overhead must also stay
// allocation-free now that setReg/finish are methods rather than closures.
func BenchmarkVMRunSlice(b *testing.B) {
	m, err := NewMachine(stepProg(1<<62), &scriptOS{}, testCfg())
	if err != nil {
		b.Fatal(err)
	}
	th := m.NewThread("bench", Normal)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, stop := m.Run(th, 64); stop != StopBudget {
			b.Fatalf("stop = %v (err %v)", stop, th.Err)
		}
	}
}

// TestRunZeroAlloc pins Run's allocation count at zero so a future change
// that reintroduces per-slice closures (or lets a local escape) fails this
// test instead of taxing every simulated instruction slice: on the ALU/memory
// loop, and on a speculating thread whose slices retire a checked word sum
// over copied and uncopied regions.
func TestRunZeroAlloc(t *testing.T) {
	m, err := NewMachine(stepProg(1<<62), &scriptOS{}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread("bench", Normal)
	avg := testing.AllocsPerRun(200, func() {
		if _, stop := m.Run(th, 1024); stop != StopBudget {
			t.Fatalf("stop = %v (err %v)", stop, th.Err)
		}
	})
	if avg != 0 {
		t.Fatalf("Run allocates %.2f objects/slice, want 0", avg)
	}

	sm, spec := makeSpecMachine(t, []Instr{{Op: NOP}}, []Instr{
		{Op: MOVI, Rd: 4, Imm: 0},
		{Op: MOVI, Rd: 5, Imm: 4000},
		{Op: LDWS, Rd: 6, Rs1: 4}, // the word sum, restarted forever
		{Op: ADD, Rd: 22, Rs1: 22, Rs2: 6},
		{Op: ADDI, Rd: 4, Rs1: 4, Imm: 8},
		{Op: BLT, Rs1: 4, Rs2: 5, Imm: 3},
		{Op: JMP, Imm: 1},
	})
	spec.Cow.StoreWord(sm.Mem(), 1020, 7) // copies the first two regions; the rest read through
	avg = testing.AllocsPerRun(200, func() {
		if _, stop := sm.Run(spec, 1024); stop != StopBudget {
			t.Fatalf("stop = %v (signals %d)", stop, spec.Signals)
		}
	})
	if avg != 0 || spec.Summarised == 0 {
		t.Fatalf("a checked scan slice allocates %.2f objects and retired %d instructions in bulk, want 0 and some",
			avg, spec.Summarised)
	}
}
