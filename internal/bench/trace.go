package bench

import (
	"fmt"

	"spechint/internal/apps"
	"spechint/internal/core"
	"spechint/internal/multi"
	"spechint/internal/obs"
)

// TraceRun executes one app in one mode with the cross-layer trace enabled
// and returns the trace alongside the run statistics. It is the backend of
// tipbench -trace-json for solo runs.
func TraceRun(app apps.App, mode core.Mode, scale apps.Scale) (*obs.Trace, *core.RunStats, error) {
	p, err := prepare(Cell{App: app, Mode: mode, Scale: scale})
	if err != nil {
		return nil, nil, err
	}
	tr := obs.New(obs.Config{})
	p.cfg.Obs = tr
	st, err := p.run()
	if err != nil {
		return nil, nil, err
	}
	return tr, st, nil
}

// TraceMulti executes a speculating group of n mixed processes (the multi
// experiment's mix) with the cross-layer trace enabled: each process gets
// its own lane next to the shared tip, cache and disk lanes.
func TraceMulti(scale apps.Scale, n int) (*obs.Trace, *multi.Result, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("bench: trace group needs n >= 1, got %d", n)
	}
	tr := obs.New(obs.Config{})
	cfg := multi.DefaultConfig()
	cfg.Obs = tr
	g, err := multi.NewGroup(cfg, scale, multiSpecs(n, core.ModeSpeculating))
	if err != nil {
		return nil, nil, err
	}
	res, err := g.Run()
	if err != nil {
		return nil, nil, err
	}
	return tr, res, nil
}
