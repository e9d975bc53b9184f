package trace_test

// The VM retires a think record's spin loop in closed form
// (vm.Thread.Summarised) only while the loop trace.Source emits, and the
// copy spechint.Transform makes of it, keep the one shape the VM recognises.
// Nothing simulated changes when they stop — a trace-driven cell just costs
// seven times the host time — so these tests pin the work itself, the way
// internal/cluster's pumpwork_test.go pins the pump's. The paper apps' scan
// loops get the same gate (TestScansAreNotInterpreted).

import (
	"fmt"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/bench"
	"spechint/internal/core"
	"spechint/internal/fsim"
	"spechint/internal/trace"
	"spechint/internal/workload"
)

var allModes = []core.Mode{core.ModeNoHint, core.ModeSpeculating, core.ModeManual, core.ModeStatic}

// thinks counts tr's think records.
func thinks(tr *trace.Trace) (n int64) {
	for _, r := range tr.Recs {
		if r.Kind == trace.KindThink {
			n++
		}
	}
	return n
}

// maxDispatchedPerThink bounds the instructions a thread dispatches one at a
// time, per think record of its trace. What is left once the spins are
// summarised is the record interpreter and the digest loop over each read
// (4 instructions per 512 bytes): 149–318 measured over the eight cells
// below, original and speculating thread alike. Stepped, the shortest think
// of either trace is 25 000 instructions.
const maxDispatchedPerThink = 400

func TestThinkIsNotInterpreted(t *testing.T) {
	scale := apps.TestScale()
	scratch := func() *fsim.FS {
		fs := fsim.New(8192)
		workload.SetBenchLayout(fs)
		return fs
	}
	recs := map[apps.App]int64{
		apps.LSM:     thinks(scale.LSM.Build(scratch())),
		apps.MLShard: thinks(scale.MLShard.Build(scratch())),
	}
	for _, app := range bench.ModernApps {
		b, err := apps.Build(app, scale)
		if err != nil {
			t.Fatal(err)
		}
		if recs[app] == 0 {
			t.Fatalf("%v: no think records at test scale", app)
		}
		for _, mode := range allModes {
			t.Run(fmt.Sprintf("%v/%v", app, mode), func(t *testing.T) {
				cfg := core.DefaultConfig(mode)
				prog := b.Original
				switch mode {
				case core.ModeSpeculating:
					prog = b.Transformed
				case core.ModeManual:
					prog = b.Manual
				case core.ModeStatic:
					synth, err := bench.Synth(b)
					if err != nil {
						t.Fatal(err)
					}
					cfg.StaticHints = bench.StaticHints(synth)
				}
				sys, err := core.New(cfg, prog, b.FS)
				if err != nil {
					t.Fatal(err)
				}
				st, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				origSum, specSum := sys.Summarised()
				check := func(thread string, instrs, summarised int64) {
					per := (instrs - summarised) / recs[app]
					t.Logf("%s thread: %d instructions, %d summarised, %d dispatched per think record",
						thread, instrs, summarised, per)
					if summarised == 0 {
						t.Errorf("%s thread stepped through every think: its spin loop is no longer recognised", thread)
					}
					if per > maxDispatchedPerThink {
						t.Errorf("%s thread dispatched %d instructions per think record, gate %d",
							thread, per, maxDispatchedPerThink)
					}
				}
				check("original", st.OrigInstrs, origSum)
				if mode == core.ModeSpeculating {
					check("speculating", st.SpecInstrs, specSum)
				}
			})
		}
	}
}

// minScanShare is the share of a paper app's instructions, per thread, that
// the VM must retire in bulk. Agrep's first-byte scan and Gnuld's and
// XDataSlice's word sums are 98–99% of what those apps execute; an edit to
// their assembly or to spechint.Transform that breaks the shape markScanLoops
// recognises drops the share to about 0, and the cells merely get slower.
const minScanShare = 0.9

// TestScansAreNotInterpreted is TestThinkIsNotInterpreted for the paper's
// three apps: their scan loops run as native kernels in the original, the
// speculating and the manually hinted run.
func TestScansAreNotInterpreted(t *testing.T) {
	scale := apps.TestScale()
	for _, app := range []apps.App{apps.Agrep, apps.Gnuld, apps.XDataSlice} {
		b, err := apps.Build(app, scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []core.Mode{core.ModeNoHint, core.ModeSpeculating, core.ModeManual} {
			prog := b.Original
			switch mode {
			case core.ModeSpeculating:
				prog = b.Transformed
			case core.ModeManual:
				prog = b.Manual
			}
			sys, err := core.New(core.DefaultConfig(mode), prog, b.FS)
			if err != nil {
				t.Fatal(err)
			}
			st, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			origSum, specSum := sys.Summarised()
			check := func(thread string, instrs, summarised int64) {
				share := float64(summarised) / float64(max(instrs, 1))
				t.Logf("%v/%v %s thread: %d of %d instructions retired in bulk (%.4f)",
					app, mode, thread, summarised, instrs, share)
				if share < minScanShare {
					t.Errorf("%v/%v %s thread: %.4f of its instructions retired in bulk, gate %.2f: its scan loop is no longer recognised",
						app, mode, thread, share, minScanShare)
				}
			}
			check("original", st.OrigInstrs, origSum)
			if mode == core.ModeSpeculating {
				check("speculating", st.SpecInstrs, specSum)
			}
		}
	}
}

// TestThinkMaxCompletes runs the longest think a trace may hold — 2^40
// cycles, 78 simulated minutes, hours of host time when stepped — in every
// mode (static without synthesised hints: three reads need none).
func TestThinkMaxCompletes(t *testing.T) {
	c := &trace.Capture{}
	c.Read("gen/a.bin", 0, 8192, 0)
	c.Read("gen/a.bin", 8192, 8192, trace.MaxThink) // between two reads: speculation meets it during a stall
	c.Read("gen/a.bin", 16384, 8192, 0)
	tr := c.Trace()
	var base *core.RunStats
	for _, mode := range allModes {
		st := replayRun(t, tr, mode, "") // also checks that the buckets sum to elapsed
		if int64(st.Elapsed) < trace.MaxThink {
			t.Errorf("%v: elapsed %d cycles, less than the think", mode, st.Elapsed)
		}
		if base == nil {
			base = st
		} else if st.ExitCode != base.ExitCode {
			t.Errorf("%v: exit %d, original %d", mode, st.ExitCode, base.ExitCode)
		}
	}
}
