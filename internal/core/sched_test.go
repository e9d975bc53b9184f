package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"spechint/internal/asm"
	"spechint/internal/fsim"
	"spechint/internal/tip"
)

// badBufSrc blocks on a read into an address outside memory: the failure is
// discovered inside the disk-completion callback, where it can only be
// recorded on the thread, never returned.
const badBufSrc = `
.data
path: .asciz "src/file000.c"
.text
main:
    movi r1, path
    syscall open
    movi r2, -64
    movi r3, 1024
    syscall read
    movi r1, 0
    syscall exit
`

// groupOn builds one original-mode process per source on a fresh shared
// substrate over fs, named p0, p1, ...
func groupOn(t *testing.T, fs *fsim.FS, srcs ...string) (*Substrate, []*System) {
	t.Helper()
	sub, err := NewSubstrate(TestbedDisk(4), tip.DefaultConfig(), fs)
	if err != nil {
		t.Fatal(err)
	}
	var procs []*System
	for i, src := range srcs {
		p, err := NewOn(sub, DefaultConfig(ModeNoHint), asm.MustAssemble(src), fmt.Sprintf("p%d", i))
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	return sub, procs
}

// TestGroupSurfacesMemberFailure: a failure recorded inside a completion
// callback — the watchdog's, or a failed original thread's — must end a group
// run on the scheduler's next iteration, naming the member.
func TestGroupSurfacesMemberFailure(t *testing.T) {
	fs, names := buildFS(t, 6, 6000)
	reader := seqReaderSrc(names, false)

	t.Run("watchdog", func(t *testing.T) {
		sub, procs := groupOn(t, fs, reader, reader, reader)
		sub.Clk.Schedule(1_000_000, func() { procs[1].watchdog("injected inconsistency") })
		_, err := RunGroup(procs, 100_000, 0)
		if err == nil || !strings.Contains(err.Error(), "p1: injected inconsistency") {
			t.Fatalf("err = %v, want p1's watchdog diagnostic", err)
		}
		if now := sub.Clk.Now(); now > 1_000_000+100_000 {
			t.Errorf("run ended at cycle %d: not on the next iteration", now)
		}
	})

	t.Run("failed original thread", func(t *testing.T) {
		_, procs := groupOn(t, fs, reader, reader, badBufSrc)
		_, err := RunGroup(procs, 100_000, 0)
		if err == nil || !strings.Contains(err.Error(), "p2: original thread failed") {
			t.Fatalf("err = %v, want p2's failed original thread", err)
		}
	})

	t.Run("foreign substrate", func(t *testing.T) {
		_, a := groupOn(t, fs, reader)
		_, b := groupOn(t, fs, reader)
		if _, err := RunGroup([]*System{a[0], b[0]}, 100_000, 0); err == nil {
			t.Fatal("processes on two substrates accepted as one group")
		}
		if _, err := RunGroup(nil, 100_000, 0); err == nil {
			t.Fatal("empty group accepted")
		}
	})
}

// TestRunStatsDoNotPinSystem: the statistics a run hands back are a detached
// copy, so holding them keeps neither the System nor its file system alive
// (a sweep that keeps every cell's stats must not keep every cell's volume).
func TestRunStatsDoNotPinSystem(t *testing.T) {
	freed := make(chan struct{})
	st := func() *RunStats {
		fs, names := buildFS(t, 4, 6000)
		// The System holds the file system and nothing holds the System, so the
		// file system's finalizer running proves the System is unreachable.
		runtime.SetFinalizer(fs, func(*fsim.FS) { close(freed) })
		return runMode(t, DefaultConfig(ModeSpeculating), seqReaderSrc(names, false), fs)
	}()

	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			if st.ReadCalls == 0 {
				t.Fatalf("stats lost their contents: %+v", st)
			}
			return
		case <-deadline:
			t.Fatal("file system still reachable while only the RunStats are held")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
