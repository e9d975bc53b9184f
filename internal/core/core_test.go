package core

import (
	"fmt"
	"strings"
	"testing"

	"spechint/internal/asm"
	"spechint/internal/fsim"
	"spechint/internal/spechint"
)

// seqReaderSrc builds a mini-Agrep: open each listed file, read it in 1 KB
// chunks, scan every byte. The read stream is fully determined by the file
// list, so speculation can run far ahead.
func seqReaderSrc(names []string, manual bool) string {
	var b strings.Builder
	b.WriteString(".equ CHUNK 1024\n.data\nbuf: .space 1024\n")
	fmt.Fprintf(&b, "nfiles: .word %d\n", len(names))
	b.WriteString("files: .word ")
	for i := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "p%d", i)
	}
	b.WriteString("\n")
	for i, n := range names {
		fmt.Fprintf(&b, "p%d: .asciz %q\n", i, n)
	}
	b.WriteString(".text\nmain:\n")
	if manual {
		// Programmer-inserted hints: disclose every file up front.
		b.WriteString(`
    ldw  r20, nfiles
    movi r21, files
hintloop:
    beq  r20, r0, hinted
    ldw  r1, (r21)
    movi r2, 0
    movi r3, 0x40000000
    syscall hintfile
    addi r21, r21, 8
    addi r20, r20, -1
    jmp  hintloop
hinted:
`)
	}
	b.WriteString(`
    ldw  r20, nfiles
    movi r21, files
mainloop:
    beq  r20, r0, done
    ldw  r1, (r21)
    syscall open
    mov  r10, r1
readloop:
    mov  r1, r10
    movi r2, buf
    movi r3, CHUNK
    syscall read
    beq  r1, r0, eof
    movi r4, buf
    add  r5, r4, r1
scan:
    ldb  r6, (r4)
    add  r22, r22, r6
    addi r4, r4, 1
    blt  r4, r5, scan
    jmp  readloop
eof:
    mov  r1, r10
    syscall close
    addi r21, r21, 8
    addi r20, r20, -1
    jmp  mainloop
done:
    andi r1, r22, 0xffff
    syscall exit
`)
	return b.String()
}

// chainReaderSrc builds a pointer-chasing reader: each 8-byte read holds the
// offset of the next read. Every read depends on the previous one, so
// speculation strays immediately — the Gnuld pathology.
func chainReaderSrc(name string, hops int) string {
	return fmt.Sprintf(`
.data
buf:  .space 8
path: .asciz %q
.text
main:
    movi r1, path
    syscall open
    mov  r10, r1
    movi r20, %d      ; hops
    movi r11, 0       ; offset
hop:
    beq  r20, r0, done
    mov  r1, r10
    mov  r2, r11
    movi r3, 0
    syscall seek
    mov  r1, r10
    movi r2, buf
    movi r3, 8
    syscall read
    ldw  r11, buf     ; next offset, data dependent
    addi r20, r20, -1
    jmp  hop
done:
    mov  r1, r10
    syscall close
    mov  r1, r11
    syscall exit
`, name, hops)
}

// buildFS creates nFiles deterministic files of size bytes each.
func buildFS(t *testing.T, nFiles, size int) (*fsim.FS, []string) {
	t.Helper()
	fs := fsim.New(8192)
	fs.SetLayout(8, 8) // stripe-unit aligned with a gap: a seek per file
	var names []string
	for i := 0; i < nFiles; i++ {
		data := make([]byte, size)
		for j := range data {
			data[j] = byte((i*7 + j*13) % 251)
		}
		name := fmt.Sprintf("src/file%03d.c", i)
		fs.MustCreate(name, data)
		names = append(names, name)
	}
	return fs, names
}

// chainFS creates one file containing a deterministic pointer chain.
func chainFS(t *testing.T, size int64, hops int) (*fsim.FS, string, int64) {
	t.Helper()
	fs := fsim.New(8192)
	data := make([]byte, size)
	// offset 0 -> hop targets scattered around the file.
	off := int64(0)
	var last int64
	for i := 0; i < hops; i++ {
		next := ((off*2654435761 + 12345) % (size - 8))
		if next < 0 {
			next = -next
		}
		next &^= 7
		for j := 0; j < 8; j++ {
			data[off+int64(j)] = byte(uint64(next) >> (8 * j))
		}
		last = off
		off = next
	}
	_ = last
	fs.MustCreate("chain.db", data)
	return fs, "chain.db", off
}

func runMode(t *testing.T, cfg Config, src string, fs *fsim.FS) *RunStats {
	t.Helper()
	prog := asm.MustAssemble(src)
	if cfg.Mode == ModeSpeculating {
		var err error
		prog, _, err = spechint.Transform(prog, spechint.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
	}
	sys, err := New(cfg, prog, fs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func testConfigs() (orig, spec, man Config) {
	return DefaultConfig(ModeNoHint), DefaultConfig(ModeSpeculating), DefaultConfig(ModeManual)
}

func TestSequentialReaderAllModesSameResult(t *testing.T) {
	origCfg, specCfg, manCfg := testConfigs()
	results := map[string]*RunStats{}
	for name, cfg := range map[string]Config{"orig": origCfg, "spec": specCfg, "man": manCfg} {
		fs, names := buildFS(t, 12, 6000)
		results[name] = runMode(t, cfg, seqReaderSrc(names, cfg.Mode == ModeManual), fs)
	}
	if results["orig"].ExitCode != results["spec"].ExitCode ||
		results["orig"].ExitCode != results["man"].ExitCode {
		t.Fatalf("exit codes differ: orig %d spec %d man %d — speculation broke correctness",
			results["orig"].ExitCode, results["spec"].ExitCode, results["man"].ExitCode)
	}
	if results["orig"].ExitCode == 0 {
		t.Fatal("degenerate checksum 0")
	}
}

func TestSpeculationReducesElapsedTime(t *testing.T) {
	origCfg, specCfg, _ := testConfigs()
	fs1, names := buildFS(t, 20, 10000)
	orig := runMode(t, origCfg, seqReaderSrc(names, false), fs1)
	fs2, _ := buildFS(t, 20, 10000)
	spec := runMode(t, specCfg, seqReaderSrc(names, false), fs2)

	if spec.Elapsed >= orig.Elapsed {
		t.Fatalf("speculating (%d) not faster than original (%d)", spec.Elapsed, orig.Elapsed)
	}
	improvement := 1 - float64(spec.Elapsed)/float64(orig.Elapsed)
	if improvement < 0.30 {
		t.Fatalf("improvement only %.1f%%, want >= 30%% on 4 disks", improvement*100)
	}
	// Nearly all data-returning reads should be hinted (Agrep-like).
	dataReads := spec.ReadCalls - int64(len(names)) // minus EOF reads
	if spec.HintedReads < dataReads*9/10 {
		t.Fatalf("hinted %d of %d data reads", spec.HintedReads, dataReads)
	}
	if spec.Restarts == 0 {
		t.Fatal("no restarts — the first read must trigger one")
	}
	if spec.SpecBusy == 0 || spec.SpecInstrs == 0 {
		t.Fatal("speculating thread never ran")
	}
}

func TestManualHintsReduceElapsedTime(t *testing.T) {
	origCfg, _, manCfg := testConfigs()
	fs1, names := buildFS(t, 20, 10000)
	orig := runMode(t, origCfg, seqReaderSrc(names, false), fs1)
	fs2, _ := buildFS(t, 20, 10000)
	man := runMode(t, manCfg, seqReaderSrc(names, true), fs2)
	if man.Elapsed >= orig.Elapsed {
		t.Fatalf("manual (%d) not faster than original (%d)", man.Elapsed, orig.Elapsed)
	}
	if man.HintedReads == 0 {
		t.Fatal("no hinted reads in manual mode")
	}
	if man.Tip.HintCalls != int64(len(names)) {
		t.Fatalf("HintCalls = %d, want %d", man.Tip.HintCalls, len(names))
	}
}

func TestSpeculationApproachesManual(t *testing.T) {
	_, specCfg, manCfg := testConfigs()
	fs1, names := buildFS(t, 20, 10000)
	spec := runMode(t, specCfg, seqReaderSrc(names, false), fs1)
	fs2, _ := buildFS(t, 20, 10000)
	man := runMode(t, manCfg, seqReaderSrc(names, true), fs2)
	// For an Agrep-like workload the paper found speculation matches manual.
	ratio := float64(spec.Elapsed) / float64(man.Elapsed)
	if ratio > 1.35 {
		t.Fatalf("speculating/manual = %.2f, want <= 1.35 for argv-determined reads", ratio)
	}
}

func TestDataDependentChainStaysCorrectAndNearlyFree(t *testing.T) {
	origCfg, specCfg, _ := testConfigs()
	fs1, name, want := chainFS(t, 2<<20, 40)
	orig := runMode(t, origCfg, chainReaderSrc(name, 40), fs1)
	fs2, _, _ := chainFS(t, 2<<20, 40)
	spec := runMode(t, specCfg, chainReaderSrc(name, 40), fs2)

	if orig.ExitCode != want || spec.ExitCode != want {
		t.Fatalf("exit codes orig %d spec %d, want %d", orig.ExitCode, spec.ExitCode, want)
	}
	// Every read is data-dependent: speculation restarts a lot and strays.
	if spec.Restarts < 10 {
		t.Fatalf("Restarts = %d, want many for a pointer chain", spec.Restarts)
	}
	// "Free": the speculating build must not be much slower than original.
	// Erroneous prefetches can cost a little on the shared disks.
	ratio := float64(spec.Elapsed) / float64(orig.Elapsed)
	if ratio > 1.25 {
		t.Fatalf("speculating/original = %.2f on data-dependent chain, want <= 1.25", ratio)
	}
}

func TestIgnoreHintsOverheadIsSmall(t *testing.T) {
	origCfg, specCfg, _ := testConfigs()
	specCfg.TIP.IgnoreHints = true
	fs1, names := buildFS(t, 15, 8000)
	orig := runMode(t, origCfg, seqReaderSrc(names, false), fs1)
	fs2, _ := buildFS(t, 15, 8000)
	spec := runMode(t, specCfg, seqReaderSrc(names, false), fs2)
	// Figure 4: with TIP ignoring hints, the transformed application is at
	// most a few percent slower than the original.
	ratio := float64(spec.Elapsed) / float64(orig.Elapsed)
	if ratio > 1.05 {
		t.Fatalf("ignore-hints overhead ratio = %.3f, want <= 1.05", ratio)
	}
	if ratio < 0.99 {
		t.Fatalf("ignore-hints run faster than original (%.3f)? hints leaked", ratio)
	}
}

func TestDeterminism(t *testing.T) {
	_, specCfg, _ := testConfigs()
	var elapsed []int64
	for i := 0; i < 2; i++ {
		fs, names := buildFS(t, 10, 5000)
		st := runMode(t, specCfg, seqReaderSrc(names, false), fs)
		elapsed = append(elapsed, int64(st.Elapsed))
	}
	if elapsed[0] != elapsed[1] {
		t.Fatalf("nondeterministic: %d vs %d", elapsed[0], elapsed[1])
	}
}

func TestModeProgramConsistency(t *testing.T) {
	fs, names := buildFS(t, 2, 1000)
	plain := asm.MustAssemble(seqReaderSrc(names, false))
	transformed, _, err := spechint.Transform(plain, spechint.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(DefaultConfig(ModeSpeculating), plain, fs); err == nil {
		t.Fatal("ModeSpeculating accepted untransformed program")
	}
	if _, err := New(DefaultConfig(ModeNoHint), transformed, fs); err == nil {
		t.Fatal("ModeNoHint accepted transformed program")
	}
}

func TestConfigValidation(t *testing.T) {
	fs, names := buildFS(t, 2, 1000)
	prog := asm.MustAssemble(seqReaderSrc(names, false))
	cfg := DefaultConfig(ModeNoHint)
	cfg.Disk.NumDisks = 0
	if _, err := New(cfg, prog, fs); err == nil {
		t.Fatal("bad disk config accepted")
	}
	cfg = DefaultConfig(ModeNoHint)
	cfg.TIP.Horizon = 0
	if _, err := New(cfg, prog, fs); err == nil {
		t.Fatal("bad TIP config accepted")
	}
	// Block size mismatch between fs and disk.
	cfg = DefaultConfig(ModeNoHint)
	otherFS := fsim.New(4096)
	if _, err := New(cfg, prog, otherFS); err == nil {
		t.Fatal("block size mismatch accepted")
	}
}

func TestStatsPopulated(t *testing.T) {
	_, specCfg, _ := testConfigs()
	fs, names := buildFS(t, 10, 9000)
	st := runMode(t, specCfg, seqReaderSrc(names, false), fs)
	if st.ReadCalls == 0 || st.Tip.ReadBlocks == 0 || st.Tip.ReadBytes == 0 {
		t.Fatalf("read stats empty: %+v", st.Tip)
	}
	if st.Disk.DemandReqs+st.Disk.PrefetchReqs == 0 {
		t.Fatal("no disk activity recorded")
	}
	if st.Pages.Touched == 0 || st.FootprintBytes == 0 {
		t.Fatal("memory stats empty")
	}
	if st.MedianReadGap == 0 || st.MedianHintGap == 0 {
		t.Fatal("gap medians empty")
	}
	if st.DilationFactor() <= 1.0 {
		t.Fatalf("dilation factor %.2f, want > 1 (COW checks slow speculation)", st.DilationFactor())
	}
	if st.Seconds() <= 0 {
		t.Fatal("elapsed seconds not positive")
	}
	if st.StallCycles() <= 0 {
		t.Fatal("no stall cycles on a disk-bound run")
	}
}

func TestCancelThrottleDisablesSpeculation(t *testing.T) {
	_, specCfg, _ := testConfigs()
	specCfg.CancelThrottle = 3
	specCfg.CancelThrottleCycles = 1 << 30 // effectively forever
	fs, name, _ := chainFS(t, 2<<20, 40)
	st := runMode(t, specCfg, chainReaderSrc(name, 40), fs)
	if st.Restarts > 3 {
		t.Fatalf("Restarts = %d with throttle 3, want <= 3", st.Restarts)
	}
}

func TestFewerDisksSlower(t *testing.T) {
	_, specCfg, _ := testConfigs()
	one := specCfg
	one.Disk = TestbedDisk(1)
	fs1, names := buildFS(t, 15, 9000)
	st1 := runMode(t, one, seqReaderSrc(names, false), fs1)
	fs4, _ := buildFS(t, 15, 9000)
	st4 := runMode(t, specCfg, seqReaderSrc(names, false), fs4)
	if st4.Elapsed >= st1.Elapsed {
		t.Fatalf("4 disks (%d) not faster than 1 disk (%d) with hints", st4.Elapsed, st1.Elapsed)
	}
}

func TestOutputCapture(t *testing.T) {
	fs := fsim.New(8192)
	fs.MustCreate("x", []byte("abc"))
	src := `
.data
msg: .asciz "hello from vm\n"
.text
main:
    movi r1, msg
    syscall print
    movi r1, 42
    syscall printint
    movi r1, 0
    syscall exit
`
	st := runMode(t, DefaultConfig(ModeNoHint), src, fs)
	if st.Output != "hello from vm\n42" {
		t.Fatalf("output = %q", st.Output)
	}
}

func TestSpeculatingOutputSuppressed(t *testing.T) {
	// Even with output-routine removal disabled, speculation must not print.
	fs, names := buildFS(t, 5, 5000)
	src := strings.Replace(seqReaderSrc(names, false), "done:\n",
		"done:\n    movi r1, endmsg\n    syscall print\n", 1)
	src = strings.Replace(src, ".data\n", ".data\nendmsg: .asciz \"END\"\n", 1)
	prog := asm.MustAssemble(src)
	opt := spechint.DefaultOptions()
	opt.RemoveOutputRoutines = false
	tp, _, err := spechint.Transform(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(DefaultConfig(ModeSpeculating), tp, fs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Output != "END" {
		t.Fatalf("output = %q, want exactly one END (no speculative prints)", st.Output)
	}
}

// TestStaticHintsReduceElapsedTime: statically synthesized whole-file hints
// issued at clock zero match manual mode's benefit while charging zero
// speculation overhead (the application binary is unmodified).
func TestStaticHintsReduceElapsedTime(t *testing.T) {
	origCfg, _, _ := testConfigs()
	fs1, names := buildFS(t, 20, 10000)
	orig := runMode(t, origCfg, seqReaderSrc(names, false), fs1)

	staticCfg := DefaultConfig(ModeStatic)
	for _, n := range names {
		staticCfg.StaticHints = append(staticCfg.StaticHints,
			StaticHint{Path: n, Off: 0, N: 0x40000000})
	}
	fs2, _ := buildFS(t, 20, 10000)
	st := runMode(t, staticCfg, seqReaderSrc(names, false), fs2)

	if st.ExitCode != orig.ExitCode {
		t.Fatalf("exit codes differ: orig %d static %d", orig.ExitCode, st.ExitCode)
	}
	if st.Elapsed >= orig.Elapsed {
		t.Fatalf("static (%d) not faster than original (%d)", st.Elapsed, orig.Elapsed)
	}
	if st.Buckets.SpecOverhead != 0 {
		t.Fatalf("SpecOverhead = %d, want 0: static hints add no code to the app", st.Buckets.SpecOverhead)
	}
	if st.HintedReads == 0 {
		t.Fatal("no hinted reads in static mode")
	}
	if st.Tip.HintCalls != int64(len(names)) {
		t.Fatalf("HintCalls = %d, want %d", st.Tip.HintCalls, len(names))
	}
	if st.Tip.BypassedSegs != 0 || st.Tip.InaccurateCalls() != 0 {
		t.Fatalf("static hints were inaccurate: bypassed=%d inaccurate=%d",
			st.Tip.BypassedSegs, st.Tip.InaccurateCalls())
	}
}

// TestStaticModeValidation: StaticHints outside ModeStatic is a config
// error, as is ModeStatic with a transformed binary.
func TestStaticModeValidation(t *testing.T) {
	fs, names := buildFS(t, 2, 1000)
	prog := asm.MustAssemble(seqReaderSrc(names, false))
	cfg := DefaultConfig(ModeNoHint)
	cfg.StaticHints = []StaticHint{{Path: "x", Off: 0, N: 1}}
	if _, err := New(cfg, prog, fs); err == nil {
		t.Error("StaticHints accepted in original mode")
	}

	tp, _, err := spechint.Transform(prog, spechint.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(DefaultConfig(ModeStatic), tp, fs); err == nil {
		t.Error("ModeStatic accepted a transformed program")
	}
}

// TestStaticHintsSkipMissingFiles: hints naming files the run does not have
// are dropped rather than crashing or poisoning the queue.
func TestStaticHintsSkipMissingFiles(t *testing.T) {
	fs, names := buildFS(t, 4, 1000)
	cfg := DefaultConfig(ModeStatic)
	cfg.StaticHints = []StaticHint{{Path: "no/such/file", Off: 0, N: 4096}}
	for _, n := range names {
		cfg.StaticHints = append(cfg.StaticHints,
			StaticHint{Path: n, Off: 0, N: 0x40000000})
	}
	st := runMode(t, cfg, seqReaderSrc(names, false), fs)
	if st.Tip.HintCalls != int64(len(names)) {
		t.Fatalf("HintCalls = %d, want %d (missing file skipped)", st.Tip.HintCalls, len(names))
	}
	if st.Tip.BypassedSegs != 0 {
		t.Fatalf("BypassedSegs = %d, want 0", st.Tip.BypassedSegs)
	}
}
