// Command tipbench regenerates the paper's evaluation: it runs any (or all)
// of the tables and figures from "Automatic I/O Hint Generation through
// Speculative Execution" (OSDI '99) on the simulated testbed and prints
// paper-style tables.
//
// Usage:
//
//	tipbench -list
//	tipbench -exp fig3
//	tipbench -exp static       # statically synthesized hints vs original/manual
//	tipbench -exp table4,table5 -scale sweep
//	tipbench -exp all          # everything, including the heavy sweeps
//	tipbench -exp quick        # everything except the heavy sweeps
//	tipbench -exp multi -json BENCH_multi.json   # one sweep: table + JSON
//	tipbench -exp replay -scale test -json BENCH_replay.json
//	tipbench -exp table4 -trace-json trace.json -trace-app gnuld
//	tipbench -exp multi -trace-json trace.json   # trace a speculating group
//	tipbench -exp fig5 -parallel 4               # bound the worker pool
//	tipbench -exp fig5 -scale sweep -cpuprofile cpu.prof -memprofile mem.prof
//
// Exit codes: 0 ok, 1 an experiment failed, 2 usage.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"spechint/internal/apps"
	"spechint/internal/bench"
	"spechint/internal/core"
	"spechint/internal/obs"
	"spechint/internal/prof"
)

// Exit codes.
const (
	exitFailed = 1 // an experiment or write failed
	exitUsage  = 2 // bad command line, reported before any simulation
)

func die(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tipbench: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	var (
		expFlag   = flag.String("exp", "quick", "experiment id(s), comma separated; or 'all' / 'quick'")
		scaleFlag = flag.String("scale", "full", "workload scale: full, sweep, or test")
		listFlag  = flag.Bool("list", false, "list available experiments")
		jsonFlag  = flag.String("json", "", "also write the experiment's machine-readable report to this file "+
			"(-exp must name exactly one of the sweep families: "+strings.Join(jsonFamilies, ", ")+")")
		traceJSON = flag.String("trace-json", "", "write a cross-layer Chrome trace_event JSON to this file "+
			"(a speculating group when -exp includes multi, else a solo speculating run of -trace-app)")
		traceApp = flag.String("trace-app", "gnuld", "application for the solo -trace-json run: agrep, gnuld, xds, postgres, lsm, mlshard")
		parallel = flag.Int("parallel", runtime.NumCPU(),
			"simulation cells run concurrently (1 = serial; output is byte-identical at any width)")
		cpuProfile = flag.String("cpuprofile", "", "write a host CPU profile of the experiments to this file")
		memProfile = flag.String("memprofile", "", "write a host heap profile, taken after the experiments, to this file")
	)
	flag.Parse()

	if *listFlag {
		fmt.Println("available experiments:")
		for _, n := range bench.Names() {
			e := bench.Registry[n]
			heavy := ""
			if e.Heavy {
				heavy = " (heavy sweep)"
			}
			fmt.Printf("  %-12s %s%s\n", n, e.Desc, heavy)
		}
		return
	}

	// Everything on the command line is resolved, and every output file
	// created, before the first cell runs, so a typo costs nothing.
	if *parallel < 1 {
		die(exitUsage, "-parallel must be >= 1, got %d", *parallel)
	}
	bench.Parallelism = *parallel

	var scale apps.Scale
	switch *scaleFlag {
	case "full":
		scale = apps.FullScale()
	case "sweep":
		scale = apps.SweepScale()
	case "test":
		scale = apps.TestScale()
	default:
		die(exitUsage, "unknown scale %q (want full, sweep or test)", *scaleFlag)
	}

	var exps []bench.Experiment
	named := map[string]bool{}
	for _, name := range expNames(*expFlag) {
		e, ok := bench.Registry[name]
		if !ok {
			die(exitUsage, "unknown experiment %q (have %s)", name, strings.Join(bench.Names(), ", "))
		}
		if named[name] {
			die(exitUsage, "experiment %q named twice in -exp", name)
		}
		named[name] = true
		exps = append(exps, e)
	}
	if *jsonFlag != "" && (len(exps) != 1 || !exps[0].JSON) {
		die(exitUsage, "-json needs -exp to name exactly one of %s, got %q",
			strings.Join(jsonFamilies, ", "), *expFlag)
	}
	app, err := parseApp(*traceApp)
	if err != nil {
		die(exitUsage, "-trace-app: %v", err)
	}

	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		die(exitFailed, "%v", err)
	}
	jsonOut, traceOut := create(*jsonFlag), create(*traceJSON)

	forMulti := false
	for _, e := range exps {
		forMulti = forMulti || e.Name == "multi"
		start := time.Now()
		fmt.Printf("==== %s ====\n", e.Name)
		rep, err := e.Run(scale)
		if err != nil {
			die(exitFailed, "%s: %v", e.Name, err)
		}
		os.Stdout.WriteString(rep.Text())
		fmt.Printf("(%s in %.1fs)\n\n", e.Name, time.Since(start).Seconds())

		if jsonOut != nil {
			out, err := bench.Encode(rep)
			if err != nil {
				die(exitFailed, "%s json: %v", e.Name, err)
			}
			if err := writeClose(jsonOut, out); err != nil {
				die(exitFailed, "%v", err)
			}
			fmt.Printf("wrote %s\n", *jsonFlag)
		}
	}

	if err := stopProfiles(); err != nil {
		die(exitFailed, "%v", err)
	}

	if traceOut != nil {
		if err := writeTrace(traceOut, app, forMulti, scale); err != nil {
			die(exitFailed, "trace: %v", err)
		}
		fmt.Printf("wrote %s\n", *traceJSON)
	}
	simulated, reused := bench.CellCounts()
	fmt.Printf("(cells: %d simulated, %d reused)\n", simulated, reused)
}

// create creates the output file path, or dies; no path is no file.
func create(path string) *os.File {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		die(exitFailed, "%v", err)
	}
	return f
}

// writeClose writes data to f and closes it.
func writeClose(f *os.File, data []byte) error {
	_, err := f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// namesWhere lists, in stable order, the experiments keep accepts.
func namesWhere(keep func(bench.Experiment) bool) []string {
	var names []string
	for _, n := range bench.Names() {
		if keep(bench.Registry[n]) {
			names = append(names, n)
		}
	}
	return names
}

// jsonFamilies are the experiments -json accepts.
var jsonFamilies = namesWhere(func(e bench.Experiment) bool { return e.JSON })

// expNames expands -exp into experiment ids: 'all', 'quick' (everything but
// the heavy sweeps), or a comma-separated list.
func expNames(exp string) []string {
	switch exp {
	case "all":
		return bench.Names()
	case "quick":
		return namesWhere(func(e bench.Experiment) bool { return !e.Heavy })
	}
	names := strings.Split(exp, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names
}

// writeTrace records one traced run and writes its Chrome trace_event JSON to
// f: a speculating multi group when the experiment list names multi,
// otherwise a solo speculating run of app.
func writeTrace(f *os.File, app apps.App, forMulti bool, scale apps.Scale) error {
	var tr *obs.Trace
	var err error
	if forMulti {
		// Four processes: a readable trace, not the full sweep.
		tr, _, err = bench.TraceMulti(scale, 4)
	} else {
		tr, _, err = bench.TraceRun(app, core.ModeSpeculating, scale)
	}
	if err != nil {
		return err
	}
	out, err := tr.ChromeTraceJSON()
	if err != nil {
		return err
	}
	return writeClose(f, append(out, '\n'))
}

func parseApp(name string) (apps.App, error) {
	switch strings.ToLower(name) {
	case "agrep":
		return apps.Agrep, nil
	case "gnuld", "ld":
		return apps.Gnuld, nil
	case "xds", "xdataslice":
		return apps.XDataSlice, nil
	case "postgres":
		return apps.Postgres, nil
	case "lsm":
		return apps.LSM, nil
	case "mlshard", "ml":
		return apps.MLShard, nil
	}
	return 0, fmt.Errorf("unknown app %q (want agrep, gnuld, xds, postgres, lsm or mlshard)", name)
}
