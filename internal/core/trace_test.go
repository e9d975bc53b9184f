package core

import (
	"testing"

	"spechint/internal/asm"
	"spechint/internal/obs"
	"spechint/internal/spechint"
)

// TestTraceRecordsTimeline: a speculating run's core events land on the
// cross-layer obs stream, under this process's lane, with every kind the
// restart protocol produces present and in time order.
func TestTraceRecordsTimeline(t *testing.T) {
	cfg := DefaultConfig(ModeSpeculating)
	cfg.Obs = obs.New(obs.Config{})
	fs, names := buildFS(t, 6, 6000)
	prog, err := asm.Assemble(seqReaderSrc(names, false))
	if err != nil {
		t.Fatal(err)
	}
	tp, _, err := spechint.Transform(prog, spechint.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, tp, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	var last obs.Event
	for _, e := range cfg.Obs.Events() {
		if e.Cat != "core" {
			continue
		}
		if e.Lane != sys.Name() {
			t.Fatalf("core event on lane %q, want %q", e.Lane, sys.Name())
		}
		if e.At < last.At {
			t.Fatalf("core events not time-ordered: %+v after %+v", e, last)
		}
		kinds[e.Name]++
		last = e
	}
	for _, k := range []string{evRead, evReadDone, evHint, evOffTrack, evRestart} {
		if kinds[k] == 0 {
			t.Errorf("no %q event recorded: %v", k, kinds)
		}
	}
}
