package bench

import (
	"encoding/json"
	"fmt"
	"sort"

	"spechint/internal/apps"
)

// Report is what every experiment returns. Text is the paper-style table
// for the terminal. The sweep families (Experiment.JSON) return a named
// envelope type that also marshals to the family's machine-readable form,
// so one run renders both faces; a plain paper table is text only.
type Report interface {
	Text() string
}

// Encode renders a sweep family's report the way tipbench -json writes it
// (and bench/golden commits it): two-space indented JSON
// with a trailing newline.
func Encode(r Report) ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	Name  string
	Desc  string
	Run   func(scale apps.Scale) (Report, error)
	Heavy bool // involves a parameter sweep (long running)
	JSON  bool // Run's report has a machine-readable face (see Encode)
}

// Registry lists every experiment by id.
var Registry = map[string]Experiment{
	"table1":     {Name: "table1", Desc: "manual-hint improvements (background)", Run: table1},
	"table3":     {Name: "table3", Desc: "transformed application statistics", Run: table3},
	"fig3":       {Name: "fig3", Desc: "elapsed time: original vs speculating vs manual", Run: figure3},
	"fig4":       {Name: "fig4", Desc: "overhead with TIP ignoring hints", Run: figure4},
	"table4":     {Name: "table4", Desc: "hinting statistics", Run: table4},
	"table5":     {Name: "table5", Desc: "prefetching and caching statistics", Run: table5},
	"table6":     {Name: "table6", Desc: "performance side-effects", Run: table6},
	"table7":     {Name: "table7", Desc: "file cache size sweep", Run: table7, Heavy: true},
	"table8":     {Name: "table8", Desc: "original apps vs number of disks", Run: table8, Heavy: true},
	"fig5":       {Name: "fig5", Desc: "improvement vs number of disks", Run: figure5, Heavy: true},
	"fig6":       {Name: "fig6", Desc: "improvement vs processor/disk speed ratio", Run: figure6, Heavy: true},
	"regionsize": {Name: "regionsize", Desc: "COW region size ablation (§3.2.1)", Run: regionSize, Heavy: true},
	"throttle":   {Name: "throttle", Desc: "cancel throttle on one disk (§5)", Run: throttle},
	"mp":         {Name: "mp", Desc: "speculation on a second processor (§5 extension)", Run: multiProcessor, Heavy: true},
	"adaptive":   {Name: "adaptive", Desc: "accuracy-gated erroneous-hint limiter (§5 extension)", Run: adaptiveLimiter},
	"join":       {Name: "join", Desc: "Postgres join improvement vs selectivity (Table 1 extension)", Run: joinSelectivity, Heavy: true},
	"multi":      {Name: "multi", Desc: "N-process shared-TIP multiprogramming: makespan, throughput, fairness", Run: multiprogramming, Heavy: true, JSON: true},
	"faults":     {Name: "faults", Desc: "graceful degradation under injected disk faults (robustness extension)", Run: faults, Heavy: true, JSON: true},
	"static":     {Name: "static", Desc: "statically synthesized hints vs original and manual (static-analysis extension)", Run: static},
	"cluster":    {Name: "cluster", Desc: "sharded TIP service: throughput, latency tails, fairness vs shard count", Run: shardedService, Heavy: true, JSON: true},
	"overload":   {Name: "overload", Desc: "overload-safe cluster: admission control, load shedding, shard failover", Run: overload, Heavy: true, JSON: true},
	"replay":     {Name: "replay", Desc: "trace replay: modern apps in all modes + capture→replay round trip", Run: replay, JSON: true},
}

// Names returns experiment ids in stable order.
func Names() []string {
	names := make([]string, 0, len(Registry))
	for n := range Registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunByName runs one experiment by id.
func RunByName(name string, scale apps.Scale) (Report, error) {
	e, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Names())
	}
	return e.Run(scale)
}
