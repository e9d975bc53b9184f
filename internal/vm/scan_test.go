package vm

// Scan-loop kernels (markScanLoops in decode.go, Machine.scan) claim what
// counted-loop summarisation claims (summarise_test.go): a machine that
// retires word-sum and byte-scan iterations in bulk and one that dispatches
// every load, add or bne, addi and blt agree on everything a caller of Run can
// see, at every budget. TestScanLoopsAreInvisible runs the two side by side
// under a seeded script, FuzzScanLoop under fuzzed text, and
// TestRunZeroAlloc (bench_test.go) keeps a checked scan allocation-free.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scanSite is one loop of the scan wall's program.
type scanSite struct {
	name       string
	start, n   int64 // the loop's code, [start, start+n) in the original text: its entry points
	head       int64 // the loop's load
	v, s, p, e uint8 // V or A, S (word sums), P and E
	k          uint8 // K (byte scans)
	stride     int64
	marked     bool // must be recognised as a scan loop
}

const (
	scanRefill = 99 // the syscall every loop exits to
	scanStoreV = 11 // the store site stores this register ...
	scanStoreA = 12 // ... at the address in this one
	scanCount  = 23 // a byte scan's match path counts its matches here
	scanData   = 64 << 10
)

// scanWallText lays out, from PC base: the refill syscall, a store site, and
// every scan shape the recogniser must accept or refuse. checked gives the
// loads and the store their checked forms, as spechint.Transform does for the
// shadow copy; targets are absolute, so base = len(text) yields that copy.
func scanWallText(base int64, checked bool) ([]Instr, []scanSite) {
	ldw, ldb, stw := LDW, LDB, STW
	if checked {
		ldw, ldb, stw = LDWS, LDBS, STWS
	}
	text := []Instr{
		{Op: SYSCALL, Imm: scanRefill},
		{Op: JMP, Imm: base},
		{Op: stw, Rs1: scanStoreA, Rs2: scanStoreV},
		{Op: JMP, Imm: base},
	}
	var sites []scanSite
	here := func() int64 { return base + int64(len(text)) }
	add := func(s scanSite, headAt int64, loop ...Instr) {
		s.start, s.n = int64(len(text)), int64(len(loop))
		s.head = s.start + headAt
		sites = append(sites, s)
		text = append(text, loop...)
	}
	wordSum := func(s scanSite, off int64) {
		h := here()
		add(s, 0,
			Instr{Op: ldw, Rd: s.v, Rs1: s.p, Imm: off},
			Instr{Op: ADD, Rd: s.s, Rs1: s.s, Rs2: s.v},
			Instr{Op: ADDI, Rd: s.p, Rs1: s.p, Imm: s.stride},
			Instr{Op: BLT, Rs1: s.p, Rs2: s.e, Imm: h},
			Instr{Op: JMP, Imm: base})
	}
	// Agrep's layout: a match is counted, then joins the next-byte path.
	byteScan := func(s scanSite, off int64) {
		h := here()
		add(s, 0,
			Instr{Op: ldb, Rd: s.v, Rs1: s.p, Imm: off},
			Instr{Op: BNE, Rs1: s.v, Rs2: s.k, Imm: h + 3},
			Instr{Op: ADDI, Rd: scanCount, Rs1: scanCount, Imm: 1},
			Instr{Op: ADDI, Rd: s.p, Rs1: s.p, Imm: s.stride},
			Instr{Op: BLT, Rs1: s.p, Rs2: s.e, Imm: h},
			Instr{Op: JMP, Imm: base})
	}
	word := func(name string, v, s, p, e uint8, stride int64, marked bool) scanSite {
		return scanSite{name: name, v: v, s: s, p: p, e: e, stride: stride, marked: marked}
	}
	bytes := func(name string, a, k, p, e uint8, stride int64, marked bool) scanSite {
		return scanSite{name: name, v: a, k: k, p: p, e: e, stride: stride, marked: marked}
	}

	// The shapes, with and without a load offset; the third copy gets uneven
	// costs poked into its decoded entries (pokeScanCosts).
	wordSum(word("word", 6, 22, 4, 5, 8, true), 0)
	wordSum(word("word+5", 7, 9, 8, 10, 8, true), 5)
	wordSum(word("word-16 poked", 6, 22, 4, 5, 8, true), -16)
	byteScan(bytes("byte", 6, 24, 4, 5, 1, true), 0)
	// L before the header, K = r0 (a hunt for NUL), a match leaves the loop.
	l := here()
	add(bytes("byte far L", 7, R0, 8, 10, 1, true), 3,
		Instr{Op: ADDI, Rd: 8, Rs1: 8, Imm: 1},
		Instr{Op: BLT, Rs1: 8, Rs2: 10, Imm: l + 3},
		Instr{Op: JMP, Imm: base},
		Instr{Op: ldb, Rd: 7, Rs1: 8, Imm: -3},
		Instr{Op: BNE, Rs1: 7, Rs2: R0, Imm: l},
		Instr{Op: JMP, Imm: base})

	// Near misses: aliased registers, SP, strides that are not the load's
	// width, a back edge to the add, a back edge carrying the SP check (its
	// unused Rd field names SP), a linking back edge.
	wordSum(word("word S=E", 6, 5, 4, 5, 8, false), 0)
	wordSum(word("word V=P", 4, 22, 4, 5, 8, false), 0)
	byteScan(bytes("byte K=P", 6, 4, 4, 5, 1, false), 0)
	byteScan(bytes("byte A=r0", R0, 24, 4, 5, 1, false), 0)
	wordSum(word("word P=SP", 6, 22, SP, 5, 8, false), 0)
	wordSum(word("word stride 16", 6, 22, 4, 5, 16, false), 0)
	wordSum(word("word stride 512", 6, 22, 4, 5, 512, false), 0)
	byteScan(bytes("byte stride 2", 6, 24, 4, 5, 2, false), 0)
	h := here()
	add(word("word back to add", 6, 22, 4, 5, 8, false), 0,
		Instr{Op: ldw, Rd: 6, Rs1: 4},
		Instr{Op: ADD, Rd: 22, Rs1: 22, Rs2: 6},
		Instr{Op: ADDI, Rd: 4, Rs1: 4, Imm: 8},
		Instr{Op: BLT, Rs1: 4, Rs2: 5, Imm: h + 1},
		Instr{Op: JMP, Imm: base})
	h = here()
	add(word("word blt checks SP", 6, 22, 4, 5, 8, false), 0,
		Instr{Op: ldw, Rd: 6, Rs1: 4},
		Instr{Op: ADD, Rd: 22, Rs1: 22, Rs2: 6},
		Instr{Op: ADDI, Rd: 4, Rs1: 4, Imm: 8},
		Instr{Op: BLT, Rd: SP, Rs1: 4, Rs2: 5, Imm: h},
		Instr{Op: JMP, Imm: base})
	h = here()
	add(word("word call back", 6, 22, 4, 5, 8, false), 0,
		Instr{Op: ldw, Rd: 6, Rs1: 4},
		Instr{Op: ADD, Rd: 22, Rs1: 22, Rs2: 6},
		Instr{Op: ADDI, Rd: 4, Rs1: 4, Imm: 8},
		Instr{Op: BGE, Rs1: 4, Rs2: 5, Imm: base},
		Instr{Op: CALL, Imm: h})
	return text, sites
}

// pokeScanCosts gives a scan loop four different instruction costs, which
// no CostModel does: the budget rule turns on the last one's cost alone.
func pokeScanCosts(m *Machine, head int64) {
	m.dec[head].cost, m.dec[head+1].cost, m.dec[head+2].cost, m.dec[head+3].cost = 2, 5, 4, 7
}

func TestScanLoopsAreInvisible(t *testing.T) {
	variants := []struct {
		name  string
		every bool  // touchPage never skips a repeated page
		page  int64 // PageBytes, if not the default
		edge  int64 // added to MemSize: the private area starts inside a region
	}{
		{name: "default"},
		{name: "touchEvery", every: true},
		{name: "4-byte pages", page: 4},
		{name: "private edge mid-region", edge: 520},
	}
	for _, v := range variants {
		for _, mode := range []Mode{Normal, Speculative} {
			t.Run(fmt.Sprintf("%s/mode%d", v.name, mode), func(t *testing.T) {
				cfg := testCfg()
				cfg.Cost = wallCosts()
				cfg.ReclaimGap = 5000 // pages go idle within a script
				if v.page != 0 {
					cfg.PageBytes = v.page
				}
				cfg.MemSize += v.edge
				steps := 3000
				if testing.Short() {
					steps = 600
				}
				scanWall(t, mode, cfg, v.every, 2027, steps)
			})
		}
	}
}

func scanWall(t *testing.T, mode Mode, cfg Config, every bool, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	orig, sites := scanWallText(0, false)
	shadow, _ := scanWallText(int64(len(orig)), true)
	p := &Program{
		Text:        append(orig, shadow...),
		Data:        make([]byte, scanData),
		DataSize:    scanData,
		OrigTextLen: int64(len(orig)),
		ShadowBase:  int64(len(orig)),
	}
	rng.Read(p.Data)
	base := int64(0)
	if mode == Speculative {
		base = p.ShadowBase
	}
	oses := []*wallOS{}
	w := newTwins(t, p, cfg, mode, func() OS {
		o := &wallOS{spinAt: base + sites[0].head}
		oses = append(oses, o)
		return o
	})
	w.each(func(m *Machine, _ *Thread) {
		m.touchEvery = every
		pokeScanCosts(m, sites[2].head)
		pokeScanCosts(m, p.ShadowBase+sites[2].head)
	})
	for _, s := range sites {
		for b, want := range map[int64]dClass{0: dSCAN, p.ShadowBase: dSCANS} {
			if got := w.m[0].dec[b+s.head].class == want; got != s.marked {
				t.Fatalf("%s at %d: recognised = %v, want %v", s.name, b+s.head, got, s.marked)
			}
		}
	}

	memLen := int64(len(w.m[0].mem))
	region := int64(cfg.COWRegion)
	// addr draws a scan's first P or a store's address: the data, a word
	// across two regions, the private area and its edge, the end of memory,
	// and addresses no load may reach.
	addr := func() int64 {
		switch r := rng.Intn(20); {
		case r < 10:
			return rng.Int63n(scanData)
		case r < 12:
			return region*(1+rng.Int63n(scanData/region-1)) - 1 - rng.Int63n(7)
		case r < 15:
			return cfg.MemSize + rng.Int63n(memLen-cfg.MemSize)
		case r < 17:
			return cfg.MemSize - rng.Int63n(24)
		case r < 19:
			return memLen - rng.Int63n(300)
		}
		return []int64{-1, -8, math.MaxInt64 - 3, math.MinInt64 + 8, rng.Int63()}[rng.Intn(5)]
	}
	length := func() int64 {
		return []int64{-rng.Int63n(20), 0, 1, 7, 8, 9, rng.Int63n(64), rng.Int63n(4096), rng.Int63n(65536)}[rng.Intn(9)]
	}
	// viewByte is the byte at a as the thread's loads see it; -1 off memory.
	viewByte := func(a int64) int64 {
		m, th := w.m[1], w.th[1]
		switch {
		case !m.validAddr(a, 1):
			return -1
		case mode == Speculative:
			return m.specLoad(th, a, 1)
		}
		return int64(m.mem[a])
	}
	siteAt := func(pc int64) *scanSite {
		for i := range sites {
			if s := &sites[i]; pc >= base+s.start && pc < base+s.start+s.n {
				return s
			}
		}
		return nil
	}
	iter := int64(4 * cfg.Cost.Default)
	budgets := []int64{1, 2, 3, iter - 1, iter, iter + 1, iter + 2, 64, 4096, 100_000}
	seen := map[StopReason]int{}
	for step := 0; step < steps; step++ {
		w.each(func(_ *Machine, th *Thread) {
			switch th.State {
			case Blocked:
				th.Wake(int64(step))
			case Halted, Faulted:
				th.State, th.Err, th.PC = Ready, nil, base
			}
		})
		switch {
		case rng.Intn(5) == 0: // a store between slices: copies regions, changes what scans read
			a, v := addr(), rng.Int63()
			if rng.Intn(2) == 0 {
				a = region * rng.Int63n(scanData/region)
			}
			w.each(func(_ *Machine, th *Thread) {
				th.PC, th.Regs[scanStoreA], th.Regs[scanStoreV] = base+2, a, v
			})
		case siteAt(w.th[0].PC) == nil || rng.Intn(3) == 0:
			s := sites[rng.Intn(len(sites))]
			pc := base + s.head
			if rng.Intn(4) == 0 {
				pc = base + s.start + rng.Int63n(s.n)
			}
			pv := addr()
			if s.p == SP { // inside the stack, or the SP check faults at once
				lo := cfg.MemSize - cfg.StackSize
				if mode == Speculative {
					lo = cfg.MemSize
				}
				pv = lo + rng.Int63n(cfg.StackSize)
			}
			ev := pv + length()
			first, last := pv+w.m[0].dec[base+s.head].imm, ev-1+w.m[0].dec[base+s.head].imm
			kv := []int64{rng.Int63n(256), -1, 256, 1 << 40, 0, viewByte(first), viewByte(last)}[rng.Intn(7)]
			sv := rng.Int63()
			w.each(func(_ *Machine, th *Thread) {
				th.PC = pc
				th.set(s.k, kv)
				th.set(s.s, sv)
				th.set(s.p, pv)
				th.set(s.e, ev)
			})
		}
		if rng.Intn(8) == 0 {
			pend := budgets[rng.Intn(len(budgets))]
			w.each(func(_ *Machine, th *Thread) { th.PendingCycles += pend })
		}
		budget := budgets[rng.Intn(len(budgets))]
		switch rng.Intn(12) {
		case 0:
			budget = 1 << 22
		case 1, 2, 3: // lands on every residue of every loop's iteration cost
			budget = 1 + rng.Int63n(300)
		}
		stop, diff := w.run(budget)
		if diff != "" {
			t.Fatalf("step %d: %s", step, diff)
		}
		if oses[0].slices != oses[1].slices || oses[0].calls != oses[1].calls {
			t.Fatalf("step %d: the OS saw SliceUsed digests %d/%d over %d/%d syscalls",
				step, oses[0].slices, oses[1].slices, oses[0].calls, oses[1].calls)
		}
		if mode == Speculative && w.th[0].Cow.Regions() != w.th[1].Cow.Regions() {
			t.Fatalf("step %d: %d regions copied, reference %d", step, w.th[0].Cow.Regions(), w.th[1].Cow.Regions())
		}
		seen[stop]++
	}
	if w.th[0].Summarised == 0 || w.th[0].Summarised >= w.th[0].Instrs {
		t.Fatalf("retired %d of %d instructions in bulk: the script exercised one path only", w.th[0].Summarised, w.th[0].Instrs)
	}
	if mode == Speculative && w.th[0].Cow.Regions() == 0 {
		t.Fatal("no region was ever copied: the checked kernels only read memory")
	}
	fault := StopError
	if mode == Speculative {
		fault = StopFault
	}
	for _, r := range []StopReason{StopBudget, StopBlocked, StopYield, fault} {
		if seen[r] == 0 {
			t.Errorf("the script never stopped with %v (%v)", r, seen)
		}
	}
	t.Logf("%d of %d instructions retired in bulk; stops %v", w.th[0].Summarised, w.th[0].Instrs, seen)
}

// Byte encoding of FuzzScanLoop's programs, as FuzzCountedLoop's: three bytes
// an instruction over alphabets that keep landing on scan-shaped text.
var (
	scanFuzzOps  = []Op{LDW, LDB, ADD, ADDI, BLT, BNE, JMP, STW, NOP, SYSCALL}
	scanFuzzRegs = []uint8{4, 5, 6, 22, R0, SP}
	scanFuzzImms = []int64{8, 1, 8, 1, 16, -1, 0, 3}
)

// scanFuzzText decodes b at base; checked turns loads and stores into their
// checked forms, as the shadow copy has them. An exit ends the text, so the
// original thread never runs on into the shadow copy's checked loads.
func scanFuzzText(b []byte, base int64, checked bool) []Instr {
	n := min(len(b)/3, 64)
	if n == 0 {
		return nil
	}
	text := make([]Instr, n+1)
	text[n] = Instr{Op: SYSCALL, Imm: SysExit}
	for i := range text[:n] {
		op, r, imm := scanFuzzOps[int(b[3*i])%len(scanFuzzOps)], int(b[3*i+1]), b[3*i+2]
		ins := Instr{Op: op, Rd: scanFuzzRegs[r%6], Rs1: scanFuzzRegs[r/6%6], Rs2: scanFuzzRegs[r/36%6]}
		switch op {
		case BLT, BNE, JMP:
			ins.Imm = base + int64(imm)%int64(n+1) // n: one past the end
		case SYSCALL:
			ins.Imm = int64(imm) % 3 // 0 is exit
		case ADDI:
			ins.Imm = scanFuzzImms[imm%8]
		default:
			ins.Imm = int64(int8(imm))
		}
		if checked {
			switch op {
			case LDW:
				ins.Op = LDWS
			case LDB:
				ins.Op = LDBS
			case STW:
				ins.Op = STWS
			}
		}
		text[i] = ins
	}
	return text
}

// FuzzScanLoop runs arbitrary small programs over the scan alphabet on the
// machine that retires scans in bulk and on the reference, in both modes, one
// Run per budget byte, and compares everything after every Run. P (r4) starts
// at p, folded into memory when it is not negative, E (r5) at P+span and r22
// at byte(span).
func FuzzScanLoop(f *testing.F) {
	f.Fuzz(func(t *testing.T, text []byte, p, span int64, budgets []byte) {
		orig := scanFuzzText(text, 0, false)
		if len(orig) == 0 {
			t.Skip()
		}
		if len(budgets) > 64 {
			budgets = budgets[:64]
		}
		prog := &Program{
			Text:        append(orig, scanFuzzText(text, int64(len(orig)), true)...),
			Data:        make([]byte, 4096),
			DataSize:    4096,
			OrigTextLen: int64(len(orig)),
			ShadowBase:  int64(len(orig)),
		}
		for i := range prog.Data {
			prog.Data[i] = byte(i*i>>3) | byte(i>>9)
		}
		cfg := testCfg()
		cfg.MemSize, cfg.StackSize, cfg.SpecHeapSize = 64<<10+40, 8<<10, 8<<10
		cfg.PageBytes, cfg.COWRegion = 256, 128
		memLen := cfg.MemSize + cfg.StackSize + cfg.SpecHeapSize
		if p >= 0 {
			p %= memLen + 64
		}
		for _, mode := range []Mode{Normal, Speculative} {
			w := newTwins(t, prog, cfg, mode, func() OS { return &scriptOS{} })
			w.each(func(_ *Machine, th *Thread) {
				th.Regs[4], th.Regs[5], th.Regs[22] = p, p+span%8192, int64(byte(span))
			})
			for i, b := range budgets {
				if w.th[0].State != Ready {
					break
				}
				if _, diff := w.run(fuzzBudgets[int(b)%len(fuzzBudgets)]); diff != "" {
					t.Fatalf("mode %d run %d: %s", mode, i, diff)
				}
			}
		}
	})
}
