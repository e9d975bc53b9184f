package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"spechint/internal/asm"
	"spechint/internal/fsim"
	"spechint/internal/spechint"
	"spechint/internal/vm"
)

// faultyReaderSrc computes a divisor from file content and divides by it:
// speculation running on a stale buffer (zeros) divides by zero — a signal,
// as the paper's Table 6 counts.
const faultyReaderSrc = `
.data
buf:  .space 8192
pathA: .asciz "a"
pathB: .asciz "b"
.text
main:
    movi r1, pathA
    syscall open
    mov  r10, r1
    mov  r1, r10
    movi r2, buf
    movi r3, 8192
    syscall read
    ; divisor comes from the file's first word (nonzero in real data,
    ; zero in a stale speculative buffer)
    ldw  r11, buf
    movi r12, 1000
    div  r13, r12, r11
    ; second file: the read stream continues
    movi r1, pathB
    syscall open
    mov  r10, r1
    mov  r1, r10
    movi r2, buf
    movi r3, 8192
    syscall read
    ldw  r11, buf
    div  r14, r12, r11
    add  r1, r13, r14
    syscall exit
`

func TestSpeculativeDivideByZeroCountsSignal(t *testing.T) {
	fs := fsim.New(8192)
	a := make([]byte, 8192)
	a[0] = 5 // word = 5
	b := make([]byte, 8192)
	b[0] = 4
	fs.MustCreate("a", a)
	fs.MustCreate("b", b)

	prog := asm.MustAssemble(faultyReaderSrc)
	tp, _, err := spechint.Transform(prog, spechint.DefaultOptions())
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
	if st.ExitCode != 200+250 {
		t.Fatalf("exit = %d, want 450", st.ExitCode)
	}
	// Speculation restarted after read A with a stale (zero) buffer; the
	// ldw/div on stale data faults -> one signal, speculation parked.
	if st.SpecSignals == 0 {
		t.Fatal("no speculative signals recorded for stale-data divide")
	}
	if st.Restarts == 0 {
		t.Fatal("no restarts")
	}
}

func TestSpeculativeSeekAndFstatStayPrivate(t *testing.T) {
	fs := fsim.New(8192)
	fs.MustCreate("f", make([]byte, 30000))
	src := `
.data
buf:  .space 64
stat: .space 24
path: .asciz "f"
.text
main:
    movi r1, path
    syscall open
    mov  r10, r1
    ; fstat: size into r11
    mov  r1, r10
    movi r2, stat
    syscall fstat
    ldw  r11, stat
    ; read the last 64 bytes (offset from fstat: data dependent)
    mov  r1, r10
    addi r2, r11, -64
    movi r3, 0
    syscall seek
    mov  r1, r10
    movi r2, buf
    movi r3, 64
    syscall read
    mov  r1, r10
    syscall close
    mov  r1, r11
    syscall exit
`
	prog := asm.MustAssemble(src)
	tp, _, err := spechint.Transform(prog, spechint.DefaultOptions())
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
	if st.ExitCode != 30000 {
		t.Fatalf("fstat size = %d, want 30000", st.ExitCode)
	}
}

func TestSbrkProgram(t *testing.T) {
	fs := fsim.New(8192)
	src := `
.text
main:
    movi r1, 64
    syscall sbrk
    mov  r10, r1      ; base
    movi r2, 77
    stw  r2, (r10)
    movi r1, 64
    syscall sbrk      ; second allocation must not alias
    stw  r0, (r1)
    ldw  r1, (r10)
    syscall exit
`
	st := runMode(t, DefaultConfig(ModeNoHint), src, fs)
	if st.ExitCode != 77 {
		t.Fatalf("exit = %d, want 77", st.ExitCode)
	}
}

func TestManualHintErrnos(t *testing.T) {
	fs := fsim.New(8192)
	fs.MustCreate("f", make([]byte, 100))
	src := `
.data
bad: .asciz "nope"
.text
main:
    movi r1, bad
    movi r2, 0
    movi r3, 100
    syscall hintfile   ; ENOENT
    mov  r10, r1
    movi r1, 42
    movi r2, 0
    movi r3, 100
    syscall hintfd     ; EBADF
    add  r1, r10, r1
    syscall exit
`
	st := runMode(t, DefaultConfig(ModeManual), src, fs)
	if st.ExitCode != int64(fsim.ENOENT)+int64(fsim.EBADF) {
		t.Fatalf("exit = %d, want ENOENT+EBADF", st.ExitCode)
	}
}

func TestReadErrnos(t *testing.T) {
	fs := fsim.New(8192)
	fs.MustCreate("f", make([]byte, 100))
	src := `
.data
buf: .space 16
path: .asciz "f"
.text
main:
    movi r1, 42
    movi r2, buf
    movi r3, 16
    syscall read       ; EBADF
    mov  r10, r1
    movi r1, path
    syscall open
    mov  r11, r1
    mov  r1, r11
    movi r2, buf
    movi r3, -5
    syscall read       ; EINVAL
    add  r1, r10, r1
    syscall exit
`
	st := runMode(t, DefaultConfig(ModeNoHint), src, fs)
	if st.ExitCode != int64(fsim.EBADF)+int64(fsim.EINVAL) {
		t.Fatalf("exit = %d", st.ExitCode)
	}
}

func TestThrottleReenablesAfterWindow(t *testing.T) {
	cfg := DefaultConfig(ModeSpeculating)
	cfg.CancelThrottle = 1
	cfg.CancelThrottleCycles = 1_000_000 // short: re-enables mid-run
	fs, names := buildFS(t, 10, 9000)
	st := runMode(t, cfg, seqReaderSrc(names, false), fs)
	// With a short window, speculation must come back after each throttle.
	if st.Restarts < 2 {
		t.Fatalf("Restarts = %d, want >= 2 (throttle must re-enable)", st.Restarts)
	}
	if st.HintedReads == 0 {
		t.Fatal("speculation never produced hints after throttling")
	}
}

func TestFigure6DelayFactorRuns(t *testing.T) {
	cfg := DefaultConfig(ModeSpeculating)
	cfg.Disk.DelayFactor = 3
	cfg.Disk.MaxPrefetchPerDisk = 1
	fs, names := buildFS(t, 8, 6000)
	st := runMode(t, cfg, seqReaderSrc(names, false), fs)
	cfgBase := DefaultConfig(ModeSpeculating)
	fs2, _ := buildFS(t, 8, 6000)
	base := runMode(t, cfgBase, seqReaderSrc(names, false), fs2)
	if st.Elapsed <= base.Elapsed {
		t.Fatal("delayed completion notification did not slow the run")
	}
}

func TestRunStatsStringsAndOutputHelpers(t *testing.T) {
	for _, m := range []Mode{ModeNoHint, ModeSpeculating, ModeManual, Mode(99)} {
		if m.String() == "" {
			t.Fatal("empty mode string")
		}
	}
	if !strings.Contains(ModeSpeculating.String(), "spec") {
		t.Fatal("mode string wrong")
	}
}

func TestMedianHelper(t *testing.T) {
	if median(nil) != 0 {
		t.Fatal("median(nil) != 0")
	}
	if median([]int64{5}) != 5 {
		t.Fatal("median single")
	}
	if got := median([]int64{9, 1, 5}); got != 5 {
		t.Fatalf("median = %d, want 5", got)
	}
}

// specSideEffectSrc exercises every syscall the speculating thread must
// suppress: writes, prints, and manual hint calls inside shadow code.
func TestSpeculativeSideEffectsSuppressed(t *testing.T) {
	fs := fsim.New(8192)
	data := make([]byte, 30000)
	for i := range data {
		data[i] = byte(i)
	}
	fs.MustCreate("f", data)
	src := `
.data
buf:  .space 8192
msg:  .asciz "REAL"
path: .asciz "f"
.text
main:
    movi r1, path
    syscall open
    mov  r10, r1
loop:
    mov  r1, r10
    movi r2, buf
    movi r3, 8192
    syscall read
    beq  r1, r0, done
    ; side effects between reads: write, print, a manual hint, a cancel
    movi r1, 1
    movi r2, buf
    movi r3, 64
    syscall write
    movi r1, msg
    syscall print
    mov  r1, r10
    movi r2, 0
    movi r3, 8192
    syscall hintfd
    syscall cancelall
    jmp  loop
done:
    movi r1, 7
    syscall exit
`
	prog := asm.MustAssemble(src)
	opt := spechint.DefaultOptions()
	opt.RemoveOutputRoutines = false // force the runtime path to suppress
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
	if st.ExitCode != 7 {
		t.Fatalf("exit = %d", st.ExitCode)
	}
	// 4 chunks -> 4 REALs from the original thread only.
	if st.Output != "REALREALREALREAL" {
		t.Fatalf("output = %q: speculation leaked output", st.Output)
	}
	// Writes counted once per original-thread call only.
	if st.WriteCalls != 4 {
		t.Fatalf("WriteCalls = %d, want 4", st.WriteCalls)
	}
}

// TestSpecRunsOnlyDuringStalls: under the single-processor policy, the
// speculating thread's busy cycles can never exceed the original thread's
// stall time (plus one slice of slack).
func TestSpecRunsOnlyDuringStalls(t *testing.T) {
	fs, names := buildFS(t, 15, 9000)
	st := runMode(t, DefaultConfig(ModeSpeculating), seqReaderSrc(names, false), fs)
	if st.SpecBusy > st.StallCycles() {
		t.Fatalf("speculation consumed %d cycles but stalls were only %d", st.SpecBusy, st.StallCycles())
	}
}

// TestHintLogPeakTracked: speculation running ahead must be visible in the
// hint-log depth statistic.
func TestHintLogPeakTracked(t *testing.T) {
	fs, names := buildFS(t, 15, 9000)
	st := runMode(t, DefaultConfig(ModeSpeculating), seqReaderSrc(names, false), fs)
	if st.HintLogPeak < 5 {
		t.Fatalf("HintLogPeak = %d, want speculation well ahead", st.HintLogPeak)
	}
}

// TestWildReadBuffer: a read whose buffer+len wraps past MaxInt64 stops the
// original thread with an error and is refused for the speculating one; it
// never panics the host. The whole syscall path is run for the original
// thread, and copyOut is called directly for both.
func TestWildReadBuffer(t *testing.T) {
	const wild = math.MaxInt64 - 3
	src := fmt.Sprintf(`
.data
path: .asciz "a"
.text
main:
    movi r1, path
    syscall open
    movi r2, %d
    movi r3, 16
    syscall read
    movi r1, 0
    syscall exit
`, int64(wild))
	fs := fsim.New(8192)
	f := fs.MustCreate("a", make([]byte, 4096))
	prog := asm.MustAssemble(src)
	sys, err := New(DefaultConfig(ModeNoHint), prog, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("read into a wrapping buffer: run error %v, want an out-of-range write", err)
	}

	tp, _, err := spechint.Transform(prog, spechint.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := New(DefaultConfig(ModeSpeculating), tp, fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []*vm.Thread{spec.orig, spec.spec} {
		for _, buf := range []int64{wild, math.MaxInt64 - 15, -1} {
			if err := spec.copyOut(th, buf, f, 0, 16); err == nil {
				t.Errorf("%s: copyOut to %d accepted", th.Name, buf)
			}
		}
	}
}
