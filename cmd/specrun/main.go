// Command specrun runs an assembly program under the simulated testbed in
// any of the three modes, optionally populating a simulated file system from
// a host directory — the fastest way to watch SpecHint work on your own
// program.
//
// Usage:
//
//	specrun -file prog.s                         # original, 4 disks
//	specrun -file prog.s -mode spec              # transform + speculate
//	specrun -file prog.s -mode spec -dual        # §5 multiprocessor
//	specrun -file prog.s -dir ./inputs -disks 8  # host files -> sim fs
//	specrun -file prog.s -mode spec -json        # stats as JSON on stdout
//	specrun -file prog.s -faults rate=0.05,seed=7  # inject disk faults
//	specrun -file prog.s -deadline 500000000     # abort after 5e8 cycles (exit 3)
//	specrun -file prog.s -trace-json t.json      # cross-layer trace for chrome://tracing
//	specrun -trace-file app.trace -mode spec     # compile + replay a captured trace
//	specrun -file prog.s -capture out.trace      # record the read stream as a trace
//	specrun -file prog.s -cpuprofile cpu.prof    # host pprof of the run (-memprofile too)
//
// Files from -dir are loaded into the simulated file system under their
// relative paths, so the program's open() calls can name them directly.
//
// Instead of assembly source, -trace-file accepts a captured I/O trace
// (internal/trace line format: open/read/think/close records). The trace is
// compiled into a replay program that runs in any mode; files the trace
// reads that -dir did not provide are synthesized at the right sizes. A
// malformed trace is a tool error: specrun exits 1 and the message carries
// the offending line number ("trace: line N: ...").
//
// Exit codes (tool status and program status are kept separate — the
// simulated program's exit code is reported in the stderr summary and the
// -json document, never as specrun's own):
//
//	0  run completed and the program exited 0
//	1  tool error (bad source, malformed trace, I/O error, simulation failure)
//	2  usage error (an unknown -mode; a negative -deadline; -file and -trace-file both present or both absent)
//	3  virtual-cycle deadline exceeded
//	4  run completed but the program exited nonzero
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"spechint/internal/asm"
	"spechint/internal/core"
	"spechint/internal/fault"
	"spechint/internal/fsim"
	"spechint/internal/obs"
	"spechint/internal/prof"
	"spechint/internal/spechint"
	itrace "spechint/internal/trace"
	"spechint/internal/vm"
	"spechint/internal/workload"
)

func main() {
	var (
		file   = flag.String("file", "", "assembly source file (this or -trace-file is required)")
		mode   = flag.String("mode", "orig", "orig, spec, or manual")
		disks  = flag.Int("disks", 4, "disks in the array")
		cache  = flag.Int("cache", 12, "file cache size in MB")
		dir    = flag.String("dir", "", "host directory to load into the simulated fs")
		dual   = flag.Bool("dual", false, "run speculation on a second processor")
		quiet  = flag.Bool("q", false, "suppress the program's own output")
		trace  = flag.Int("trace", 0, "print up to N core events (reads, hints, restarts) of the cross-layer trace")
		jsonF  = flag.Bool("json", false, "emit the run's statistics as JSON on stdout")
		ddline = flag.Int64("deadline", 0, "abort after this many virtual cycles (0 = default budget)")
		faults = flag.String("faults", "", "fault-injection spec, e.g. rate=0.01,seed=42 (keys: "+
			strings.Join(fault.Keys(), ", ")+"; dieshard and brown act on cluster shards and are rejected here)")
		traceJSON   = flag.String("trace-json", "", "write the cross-layer trace as Chrome trace_event JSON to this file")
		metricsJSON = flag.String("metrics-json", "", "write the sampled metric time series as JSON to this file")
		traceFile   = flag.String("trace-file", "", "captured I/O trace to compile and replay (instead of -file)")
		captureF    = flag.String("capture", "", "write the run's read stream as a replayable trace to this file")
		cpuProfile  = flag.String("cpuprofile", "", "write a host CPU profile of the simulated run to this file")
		memProfile  = flag.String("memprofile", "", "write a host heap profile, taken after the simulated run, to this file")
	)
	flag.Parse()
	if (*file == "") == (*traceFile == "") {
		fmt.Fprintln(os.Stderr, "specrun: exactly one of -file or -trace-file is required")
		flag.Usage()
		os.Exit(2)
	}

	if *ddline < 0 {
		fmt.Fprintf(os.Stderr, "specrun: -deadline %d, want >= 0\n", *ddline)
		flag.Usage()
		os.Exit(2)
	}

	var m core.Mode
	switch *mode {
	case "orig":
		m = core.ModeNoHint
	case "manual":
		m = core.ModeManual
	case "spec":
		m = core.ModeSpeculating
	default:
		fmt.Fprintf(os.Stderr, "specrun: unknown mode %q (want orig, spec or manual)\n", *mode)
		flag.Usage()
		os.Exit(2)
	}

	// Resolve the program: assembly source, or a trace compiled to a replay
	// program (the manual variant carries the hint oracle).
	var prog *vm.Program
	var replay *itrace.Trace
	if *traceFile != "" {
		data, err := os.ReadFile(*traceFile)
		if err != nil {
			fail(err)
		}
		if replay, err = itrace.Parse(string(data)); err != nil {
			fail(err)
		}
		if prog, err = asm.Assemble(itrace.Source(replay, m == core.ModeManual)); err != nil {
			fail(err)
		}
	} else {
		src, err := os.ReadFile(*file)
		if err != nil {
			fail(err)
		}
		if prog, err = asm.Assemble(string(src)); err != nil {
			fail(err)
		}
	}
	var err error
	if m == core.ModeSpeculating {
		var st spechint.Stats
		prog, st, err = spechint.Transform(prog, spechint.DefaultOptions())
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "spechint: %d -> %d instructions, %d checks, %d hint sites\n",
			st.OrigInstrs, st.TotalInstrs, st.ChecksAdded, st.HintSites)
	}

	vfs := fsim.New(8192)
	workload.SetBenchLayout(vfs)
	if *dir != "" {
		if err := loadDir(vfs, *dir); err != nil {
			fail(err)
		}
	}
	if replay != nil {
		// Synthesize any file the trace reads that -dir did not provide.
		if err := itrace.PopulateFS(vfs, replay); err != nil {
			fail(err)
		}
	}

	cfg := core.DefaultConfig(m)
	cfg.Disk = core.TestbedDisk(*disks)
	cfg.TIP.CacheBlocks = *cache << 20 / cfg.Disk.BlockSize
	cfg.DualProcessor = *dual
	if *ddline > 0 {
		cfg.MaxCycles = *ddline
	}
	if *faults != "" {
		if cfg.Faults, err = fault.Parse(*faults); err != nil {
			fail(err)
		}
	}
	var tr *obs.Trace
	if *trace > 0 || *traceJSON != "" || *metricsJSON != "" {
		tr = obs.New(obs.Config{})
		cfg.Obs = tr
	}
	var capt *itrace.Capture
	if *captureF != "" {
		capt = &itrace.Capture{}
		cfg.Capture = capt
	}

	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	sys, err := core.New(cfg, prog, vfs)
	if err != nil {
		fail(err)
	}
	st, err := sys.Run()
	if perr := stopProfiles(); perr != nil {
		fail(perr)
	}
	if errors.Is(err, core.ErrDeadline) {
		fmt.Fprintf(os.Stderr, "specrun: deadline exceeded: the program did not finish within %d virtual cycles (%.3f testbed seconds)\n",
			cfg.MaxCycles, float64(cfg.MaxCycles)/core.CPUHz)
		os.Exit(3)
	}
	if err != nil {
		fail(err)
	}

	if *traceJSON != "" {
		writeExport(*traceJSON, tr.ChromeTraceJSON)
	}
	if *metricsJSON != "" {
		writeExport(*metricsJSON, tr.MetricsJSON)
	}
	if capt != nil {
		captured := capt.Trace()
		if err := os.WriteFile(*captureF, []byte(itrace.Format(captured)), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "capture: %d records -> %s\n", len(captured.Recs), *captureF)
	}

	if *jsonF {
		out, err := json.MarshalIndent(struct {
			Mode    string         `json:"mode"`
			Seconds float64        `json:"seconds"`
			Stats   *core.RunStats `json:"stats"`
		}{m.String(), st.Seconds(), st}, "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Println(string(out))
		exitForProgram(st.ExitCode)
	}

	if !*quiet && st.Output != "" {
		fmt.Print(st.Output)
		if st.Output[len(st.Output)-1] != '\n' {
			fmt.Println()
		}
	}
	fmt.Fprintf(os.Stderr, "exit %d in %.3f testbed seconds (%d cycles)\n",
		st.ExitCode, st.Seconds(), st.Elapsed)
	fmt.Fprintf(os.Stderr, "reads %d (%d hinted), stall %.3fs, restarts %d, signals %d\n",
		st.ReadCalls, st.HintedReads,
		float64(st.StallCycles())/core.CPUHz, st.Restarts, st.SpecSignals)
	if *faults != "" {
		fmt.Fprintf(os.Stderr, "faults: %d transient, %d spiked, %d dead; tip retries %d, demoted %d; read errors %d, fault restarts %d, degraded %v\n",
			st.Disk.FaultedReqs, st.Disk.SpikedReqs, st.Disk.DeadReqs,
			st.TipFaults.FetchRetries, st.TipFaults.DemotedBlocks,
			st.ReadErrors, st.FaultRestarts, st.Degraded)
	}
	if *trace > 0 {
		fmt.Fprint(os.Stderr, formatTrace(coreEvents(tr), *trace, tr.Dropped()))
	}
	exitForProgram(st.ExitCode)
}

// exitForProgram maps the simulated program's exit code onto specrun's own:
// 0 stays 0, anything else becomes the reserved code 4 ("program exited
// nonzero") so the program can never collide with the tool's codes 1-3. The
// program's actual code is in the stderr summary and the -json document.
func exitForProgram(code int64) {
	if code == 0 {
		os.Exit(0)
	}
	os.Exit(4)
}

// coreEvents picks the core layer's events (reads, hints, off-track
// detections, restarts) out of the cross-layer trace.
func coreEvents(tr *obs.Trace) []obs.Event {
	var evs []obs.Event
	for _, e := range tr.Events() {
		if e.Cat == "core" {
			evs = append(evs, e)
		}
	}
	return evs
}

// formatTrace renders up to limit events as `cycle  event  detail` rows,
// eliding the middle of a longer timeline. dropped is the count of events the
// recorder discarded at its capacity bound; when nonzero it is surfaced as a
// trailer so a truncated timeline can never pass for a complete one.
func formatTrace(events []obs.Event, limit int, dropped int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s  %-10s %s\n", "cycle", "event", "detail")
	rows := func(evs []obs.Event) {
		for _, e := range evs {
			fmt.Fprintf(&b, "%12d  %-10s %s\n", e.At, e.Name, e.Detail)
		}
	}
	if limit >= len(events) {
		rows(events)
	} else {
		head := limit / 2
		rows(events[:head])
		fmt.Fprintf(&b, "    ... %d events elided ...\n", len(events)-limit)
		rows(events[len(events)-(limit-head):])
	}
	if dropped > 0 {
		fmt.Fprintf(&b, "    ... %d later events dropped at the trace capacity ...\n", dropped)
	}
	return b.String()
}

// writeExport renders one exporter to a file.
func writeExport(path string, render func() ([]byte, error)) {
	data, err := render()
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fail(err)
	}
}

// loadDir copies a host directory tree into the simulated file system.
func loadDir(vfs *fsim.FS, dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		_, err = vfs.Create(filepath.ToSlash(rel), data)
		return err
	})
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "specrun: %v\n", err)
	os.Exit(1)
}
