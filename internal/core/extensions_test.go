package core

import (
	"testing"
)

// TestDualProcessorCorrectness: the §5 multiprocessor extension must not
// change program results.
func TestDualProcessorCorrectness(t *testing.T) {
	cfg := DefaultConfig(ModeSpeculating)
	cfg.DualProcessor = true
	fs1, names := buildFS(t, 12, 8000)
	mp := runMode(t, cfg, seqReaderSrc(names, false), fs1)

	fs2, _ := buildFS(t, 12, 8000)
	sp := runMode(t, DefaultConfig(ModeSpeculating), seqReaderSrc(names, false), fs2)

	fs3, _ := buildFS(t, 12, 8000)
	orig := runMode(t, DefaultConfig(ModeNoHint), seqReaderSrc(names, false), fs3)

	if mp.ExitCode != orig.ExitCode || sp.ExitCode != orig.ExitCode {
		t.Fatalf("exit codes: orig %d sp %d mp %d", orig.ExitCode, sp.ExitCode, mp.ExitCode)
	}
	if mp.Elapsed > orig.Elapsed {
		t.Fatalf("dual-processor speculation slower than original: %d > %d", mp.Elapsed, orig.Elapsed)
	}
}

// TestDualProcessorSpeculatesDuringCompute: on a second CPU, speculation
// accumulates busy cycles even while the original thread is computing, so
// its total must exceed the stall-only budget's... at least, it must run
// and produce hints.
func TestDualProcessorSpeculatesDuringCompute(t *testing.T) {
	cfg := DefaultConfig(ModeSpeculating)
	cfg.DualProcessor = true
	fs, names := buildFS(t, 15, 9000)
	mp := runMode(t, cfg, seqReaderSrc(names, false), fs)
	if mp.SpecBusy == 0 || mp.HintedReads == 0 {
		t.Fatalf("dual-processor speculation idle: busy=%d hinted=%d", mp.SpecBusy, mp.HintedReads)
	}
	// The second CPU lets speculation run during compute as well as stalls,
	// so its busy time can exceed the original thread's stall time.
	dataReads := mp.ReadCalls - int64(len(names))
	if mp.HintedReads < dataReads*8/10 {
		t.Fatalf("hinted %d of %d under dual processor", mp.HintedReads, dataReads)
	}
}

// TestAdaptiveThrottleLimitsRestarts: on the pointer-chasing workload the
// accuracy-gated limiter must back speculation off.
func TestAdaptiveThrottleLimitsRestarts(t *testing.T) {
	base := DefaultConfig(ModeSpeculating)
	fs1, name, want := chainFS(t, 2<<20, 40)
	off := runMode(t, base, chainReaderSrc(name, 40), fs1)

	cfg := DefaultConfig(ModeSpeculating)
	cfg.AdaptiveThrottle = true
	fs2, _, _ := chainFS(t, 2<<20, 40)
	on := runMode(t, cfg, chainReaderSrc(name, 40), fs2)

	if on.ExitCode != want || off.ExitCode != want {
		t.Fatalf("exit codes: %d / %d, want %d", on.ExitCode, off.ExitCode, want)
	}
	if on.Restarts >= off.Restarts {
		t.Fatalf("adaptive throttle did not reduce restarts: %d >= %d", on.Restarts, off.Restarts)
	}
	if on.Elapsed > off.Elapsed*105/100 {
		t.Fatalf("adaptive throttle made things worse: %d vs %d", on.Elapsed, off.Elapsed)
	}
}

// TestAdaptiveThrottleHarmlessWhenAccurate: an accurate speculator must not
// be throttled.
func TestAdaptiveThrottleHarmlessWhenAccurate(t *testing.T) {
	cfg := DefaultConfig(ModeSpeculating)
	cfg.AdaptiveThrottle = true
	fs1, names := buildFS(t, 15, 9000)
	on := runMode(t, cfg, seqReaderSrc(names, false), fs1)
	fs2, _ := buildFS(t, 15, 9000)
	off := runMode(t, DefaultConfig(ModeSpeculating), seqReaderSrc(names, false), fs2)
	// Sequential reader hints accurately: elapsed must be unchanged.
	if on.Elapsed != off.Elapsed {
		t.Fatalf("adaptive throttle changed an accurate run: %d vs %d", on.Elapsed, off.Elapsed)
	}
}

// TestDualProcessorDeterministic: SMP scheduling must stay reproducible.
func TestDualProcessorDeterministic(t *testing.T) {
	cfg := DefaultConfig(ModeSpeculating)
	cfg.DualProcessor = true
	var elapsed []int64
	for i := 0; i < 2; i++ {
		fs, names := buildFS(t, 10, 6000)
		st := runMode(t, cfg, seqReaderSrc(names, false), fs)
		elapsed = append(elapsed, int64(st.Elapsed))
	}
	if elapsed[0] != elapsed[1] {
		t.Fatalf("nondeterministic SMP: %d vs %d", elapsed[0], elapsed[1])
	}
}
