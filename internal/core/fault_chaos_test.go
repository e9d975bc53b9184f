package core

import (
	"fmt"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/asm"
	"spechint/internal/fault"
	"spechint/internal/spechint"
	"spechint/internal/vm"
)

// chaosApps are the paper's three main benchmarks plus the two
// trace-replay-generated modern workloads, all at test scale.
var chaosApps = []apps.App{apps.Agrep, apps.Gnuld, apps.XDataSlice, apps.LSM, apps.MLShard}

// chaosModes are the paper's three bars.
var chaosModes = []Mode{ModeNoHint, ModeSpeculating, ModeManual}

// recoverablePlans are seeded fault schedules with no disk death: every
// demand read eventually succeeds, so the containment contract requires the
// output to be bit-identical to the fault-free run.
var recoverablePlans = []string{
	"seed=11,rate=0.02",
	"seed=23,rate=0.05,burst=3,spike=0.05x6",
	"seed=37,failn=2,spike=0.1x4",
}

func chaosProg(t *testing.T, b *apps.Bundle, mode Mode) *vm.Program {
	t.Helper()
	switch mode {
	case ModeSpeculating:
		return b.Transformed
	case ModeManual:
		return b.Manual
	}
	return b.Original
}

// chaosRun builds a fresh system for (app, mode) and runs it under spec
// ("" = fault-free). Plans are stateful, so each run parses its own.
func chaosRun(t *testing.T, app apps.App, mode Mode, spec string) *RunStats {
	t.Helper()
	b, err := apps.Build(app, apps.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(mode)
	if spec != "" {
		if cfg.Faults, err = fault.Parse(spec); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := New(cfg, chaosProg(t, b, mode), b.FS)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.Run()
	if err != nil {
		t.Fatalf("%v/%v under %q: run aborted: %v", app, mode, spec, err)
	}
	return st
}

// TestChaosRecoverableFaultsPreserveOutput is the main containment sweep:
// for every seeded recoverable plan, every app in every mode completes with
// output identical to the fault-free run, and no speculating-thread fault
// aborts a run.
func TestChaosRecoverableFaultsPreserveOutput(t *testing.T) {
	for _, app := range chaosApps {
		for _, mode := range chaosModes {
			app, mode := app, mode
			t.Run(fmt.Sprintf("%v/%v", app, mode), func(t *testing.T) {
				// Cells are independent simulations sharing only the
				// immutable program cache; running them concurrently makes
				// the race detector patrol that sharing on every CI run.
				t.Parallel()
				base := chaosRun(t, app, mode, "")
				if base.ReadErrors != 0 {
					t.Fatalf("fault-free run saw %d read errors", base.ReadErrors)
				}
				for _, spec := range recoverablePlans {
					st := chaosRun(t, app, mode, spec)
					if st.Output != base.Output || st.ExitCode != base.ExitCode {
						t.Errorf("plan %q changed output: exit %d vs %d", spec, st.ExitCode, base.ExitCode)
					}
					if st.ReadErrors != 0 {
						t.Errorf("plan %q: %d demand reads surfaced EIO; recoverable faults must retry", spec, st.ReadErrors)
					}
					if st.Degraded {
						t.Errorf("plan %q: run reports degraded mode with no disk death", spec)
					}
					// Faults never speed up the paper trio. The replay-generated
					// apps may finish up to 1% earlier: a failed read loses the
					// drive's track-buffer window, so the disk's next pick from
					// its prefetch queue starts from a cold head and can order
					// the queued runs a little better than the warm pick would.
					if floor := base.Elapsed; app == apps.LSM || app == apps.MLShard {
						if st.Elapsed*100 < floor*99 {
							t.Errorf("plan %q: faulted run finished more than 1%% earlier (%d < 0.99 × %d cycles)", spec, st.Elapsed, base.Elapsed)
						}
					} else if st.Elapsed < floor {
						t.Errorf("plan %q: faulted run finished earlier (%d < %d cycles)", spec, st.Elapsed, base.Elapsed)
					}
				}
			})
		}
	}
}

// TestChaosDeterminism: the same seed and plan reproduce the run
// cycle-for-cycle.
func TestChaosDeterminism(t *testing.T) {
	const spec = "seed=23,rate=0.05,burst=3,spike=0.05x6"
	for _, app := range chaosApps {
		for _, mode := range chaosModes {
			a := chaosRun(t, app, mode, spec)
			b := chaosRun(t, app, mode, spec)
			if a.Elapsed != b.Elapsed || a.ExitCode != b.ExitCode || a.Output != b.Output {
				t.Errorf("%v/%v: same plan diverged: %d vs %d cycles", app, mode, a.Elapsed, b.Elapsed)
			}
			if a.Disk.FaultedReqs != b.Disk.FaultedReqs || a.Disk.SpikedReqs != b.Disk.SpikedReqs {
				t.Errorf("%v/%v: injection schedule diverged: %d/%d vs %d/%d faults/spikes",
					app, mode, a.Disk.FaultedReqs, a.Disk.SpikedReqs, b.Disk.FaultedReqs, b.Disk.SpikedReqs)
			}
		}
	}
}

// TestChaosFaultsActuallyInjected guards the sweep against vacuity: the
// recoverable plans must really perturb the runs they claim to test.
func TestChaosFaultsActuallyInjected(t *testing.T) {
	st := chaosRun(t, apps.Gnuld, ModeSpeculating, "seed=23,rate=0.05,burst=3,spike=0.05x6")
	if st.Disk.FaultedReqs == 0 {
		t.Error("rate=0.05 plan injected no transient faults")
	}
	if st.Disk.SpikedReqs == 0 {
		t.Error("spike=0.05 plan injected no latency spikes")
	}
	if st.TipFaults.FetchErrors == 0 || st.TipFaults.FetchRetries == 0 {
		t.Errorf("TIP absorbed nothing: %+v", st.TipFaults)
	}
}

// TestChaosDiskDeath: Gnuld survives a whole-disk loss in every mode — the
// run completes (the application sees EIO and takes its error path; nothing
// panics, nothing hangs), prefetching for the dead disk is suppressed, and
// speculation's forced restarts keep shadow state consistent.
func TestChaosDiskDeath(t *testing.T) {
	// Die early enough that plenty of reads are still outstanding (Gnuld at
	// test scale runs ~35-50M cycles in every mode).
	const spec = "seed=5,die=0@5000000"
	for _, mode := range chaosModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			st := chaosRun(t, apps.Gnuld, mode, spec)
			if !st.Degraded {
				t.Fatal("run not degraded after disk death")
			}
			if st.ReadErrors == 0 {
				t.Fatal("no demand read surfaced EIO; the app never saw the dead disk")
			}
			if st.Disk.DeadDisks != 1 {
				t.Fatalf("DeadDisks = %d, want 1", st.Disk.DeadDisks)
			}
			if mode == ModeSpeculating && st.ReadErrors > 0 && st.FaultRestarts == 0 {
				t.Error("EIO reached the app but speculation was never forced to restart")
			}
			// Determinism holds under death, too.
			again := chaosRun(t, apps.Gnuld, mode, spec)
			if again.Elapsed != st.Elapsed || again.Output != st.Output {
				t.Errorf("death run diverged: %d vs %d cycles", again.Elapsed, st.Elapsed)
			}
		})
	}
}

// TestChaosGeneratedProgramsSurviveDeath runs seeded generated programs
// (whose reads all guard negative returns) against disk death in original
// and speculating modes: completion and per-seed determinism are the
// invariants; exit codes may legitimately differ across modes because the
// death time lands on different reads.
func TestChaosGeneratedProgramsSurviveDeath(t *testing.T) {
	var totalDead int64
	for seed := int64(1); seed <= 4; seed++ {
		src := genProgram(seed, 4)
		base, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		transformed, _, err := spechint.Transform(base, spechint.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: transform: %v", seed, err)
		}
		plan := func() *fault.Plan {
			p, err := fault.Parse("seed=9,die=0@100000,rate=0.02")
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		run := func(mode Mode) *RunStats {
			prog := base
			if mode == ModeSpeculating {
				prog = transformed
			}
			cfg := DefaultConfig(mode)
			cfg.Faults = plan()
			sys, err := New(cfg, prog, genFS(seed, 4))
			if err != nil {
				t.Fatal(err)
			}
			st, err := sys.Run()
			if err != nil {
				t.Fatalf("seed %d mode %v: %v", seed, mode, err)
			}
			return st
		}
		for _, mode := range []Mode{ModeNoHint, ModeSpeculating} {
			a := run(mode)
			b := run(mode)
			if a.ExitCode != b.ExitCode || a.Elapsed != b.Elapsed {
				t.Errorf("seed %d mode %v: nondeterministic under death (%d/%d vs %d/%d)",
					seed, mode, a.ExitCode, a.Elapsed, b.ExitCode, b.Elapsed)
			}
			totalDead += a.Disk.DeadReqs + a.ReadErrors
		}
	}
	if totalDead == 0 {
		t.Error("no generated run ever touched the dead disk; the sweep is vacuous")
	}
}
