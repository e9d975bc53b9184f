package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/core"
	"spechint/internal/fault"
	"spechint/internal/fsim"
	"spechint/internal/multi"
	"spechint/internal/sim"
	"spechint/internal/tip"
	"spechint/internal/workload"
)

// agrepProcs builds n original-mode Agrep processes (p0, p1, ...) on one
// fresh substrate, the way multi.NewGroup does. With orphan set, the
// processes run on a clock of their own while the disks and TIP stay wired to
// the one nobody drives: no I/O ever completes, so every process blocks on its
// first read and the driven queue drains.
func agrepProcs(t *testing.T, n int, maxCycles int64, orphan bool) []*core.System {
	t.Helper()
	fs := fsim.New(8192)
	workload.SetBenchLayout(fs)
	sub, err := core.NewSubstrate(core.TestbedDisk(4), tip.DefaultConfig(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if orphan {
		sub.Clk = sim.NewQueue()
	}
	cfg := core.DefaultConfig(core.ModeNoHint)
	cfg.MaxCycles = maxCycles
	var procs []*core.System
	for i := 0; i < n; i++ {
		b, err := apps.BuildOn(fs, apps.Agrep, apps.TestScale().WithProcess(i, 101))
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewOn(sub, cfg, b.Original, fmt.Sprintf("p%d", i))
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	return procs
}

// TestOneDriverContract: the three run families share core.Drive, so they
// fail the same two ways. A MaxCycles too small for the run is ErrDeadline
// (what specrun maps to exit 3) in all of them; an event queue that drains
// with work unfinished is an error naming everything still unfinished — each
// blocked process, or the count of open sessions.
func TestOneDriverContract(t *testing.T) {
	families := []struct {
		name string
		// run builds a fresh instance bounded by maxCycles — with orphan set,
		// one whose I/O never completes — and runs it, returning what a
		// drained-queue diagnosis must name together with the run's error.
		run func(t *testing.T, maxCycles int64, orphan bool) ([]string, error)
	}{
		{"solo", func(t *testing.T, maxCycles int64, orphan bool) ([]string, error) {
			_, err := agrepProcs(t, 1, maxCycles, orphan)[0].Run()
			return []string{"core: p0: "}, err
		}},
		{"group of 3", func(t *testing.T, maxCycles int64, orphan bool) ([]string, error) {
			_, err := core.RunGroup(agrepProcs(t, 3, 0, orphan), 100_000, maxCycles)
			return []string{"core: p0: ", "core: p1: ", "core: p2: "}, err
		}},
		{"cluster", func(t *testing.T, maxCycles int64, orphan bool) ([]string, error) {
			cfg := DefaultConfig(2)
			cfg.MaxCycles = maxCycles
			pop := testPop(t)
			c, err := New(cfg, pop)
			if err != nil {
				t.Fatal(err)
			}
			if orphan {
				c.clk = sim.NewQueue() // the shards keep the old one
			}
			_, err = c.Run()
			return []string{fmt.Sprintf("%d sessions unfinished", pop.Cfg.N*pop.Cfg.Sessions)}, err
		}},
	}
	for _, f := range families {
		t.Run(f.name+"/deadline", func(t *testing.T) {
			_, err := f.run(t, 1000, false)
			if !errors.Is(err, core.ErrDeadline) {
				t.Fatalf("err = %v, want core.ErrDeadline", err)
			}
		})
		t.Run(f.name+"/drained queue", func(t *testing.T) {
			unfinished, err := f.run(t, 0, true)
			if err == nil || errors.Is(err, core.ErrDeadline) {
				t.Fatalf("err = %v, want a drained-queue diagnosis", err)
			}
			for _, want := range unfinished {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("diagnosis does not name %q:\n%v", want, err)
				}
			}
		})
	}
}

// TestFaultPlanHalves: a fault plan has a disk half and a shard half, and each
// consumer installs one. Every consumer accepts its own half and rejects the
// other by spec key — before this, a cluster ignored rate/burst/spike/failn/die
// (no shard installs a disk injector) and a solo or group run ignored
// dieshard/brown.
func TestFaultPlanHalves(t *testing.T) {
	consumers := []struct {
		name  string
		disk  bool // installs the disk half (else the shard half)
		build func(p *fault.Plan) error
	}{
		{"core", true, func(p *fault.Plan) error {
			cfg := core.DefaultConfig(core.ModeNoHint)
			cfg.Faults = p
			return cfg.Validate()
		}},
		{"multi", true, func(p *fault.Plan) error {
			cfg := multi.DefaultConfig()
			cfg.Faults = p
			_, err := multi.NewGroup(cfg, apps.TestScale(), []multi.ProcSpec{{App: apps.Agrep, Mode: core.ModeNoHint}})
			return err
		}},
		{"cluster", false, func(p *fault.Plan) error {
			cfg := DefaultConfig(2)
			cfg.Fault = p
			_, err := New(cfg, testPop(t))
			return err
		}},
	}
	specs := []struct {
		key, spec string
		disk      bool
	}{
		{"rate", "rate=0.1", true},
		{"burst", "burst=2", true},
		{"spike", "spike=0.1", true},
		{"failn", "failn=1", true},
		{"die", "die=0@1e9", true},
		{"dieshard", "dieshard=0@1e9", false},
		{"brown", "brown=1@1e6-2e6", false},
	}
	for _, c := range consumers {
		for _, s := range specs {
			p, err := fault.Parse(s.spec)
			if err != nil {
				t.Fatal(err)
			}
			err = c.build(p)
			switch {
			case c.disk == s.disk && err != nil:
				t.Errorf("%s rejects its own half %q: %v", c.name, s.spec, err)
			case c.disk != s.disk && (err == nil || !strings.Contains(err.Error(), "fault: "+s.key+" ")):
				t.Errorf("%s given %q: err = %v, want one naming %s", c.name, s.spec, err, s.key)
			}
		}
	}
}
