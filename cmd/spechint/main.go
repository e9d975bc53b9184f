// Command spechint is the binary-modification tool as a CLI: it transforms
// a VM program (an assembly file, or one of the built-in benchmark
// applications) to perform speculative execution for I/O hint generation,
// and reports the paper's Table 3 statistics. It can also run the static
// analyses on their own: -lint verifies the transform invariants on the
// generated shadow text, and -synthesize classifies every read call site and
// compiles every proved access pattern into static hints — for the
// built-in apps it then runs the program in static mode and audits every
// synthesized hint against the dynamic read-site statistics (a hint the run
// never consumed is a lint error and a nonzero exit).
//
// Usage:
//
//	spechint -file prog.s [-dis] [-no-stack-opt] [-keep-output]
//	spechint -app agrep|gnuld|xds [-dis]
//	spechint -app all -lint          # verify the shadow text of every app
//	spechint -app all -synthesize    # synthesize + verify static hints
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"spechint/internal/analysis"
	"spechint/internal/apps"
	"spechint/internal/asm"
	"spechint/internal/bench"
	"spechint/internal/core"
	"spechint/internal/spechint"
	"spechint/internal/vm"
)

func main() {
	var (
		file       = flag.String("file", "", "assembly source file to transform")
		app        = flag.String("app", "", "built-in benchmark to transform: agrep, gnuld, xds, or all")
		dis        = flag.Bool("dis", false, "print the disassembly of the transformed program")
		noStackOpt = flag.Bool("no-stack-opt", false, "disable the stack-copy optimization (check SP-relative accesses too)")
		keepOutput = flag.Bool("keep-output", false, "keep output-routine calls in the shadow code")
		lint       = flag.Bool("lint", false, "verify the transform invariants on the shadow text; nonzero exit on findings")
		synthesize = flag.Bool("synthesize", false, "synthesize static hints; for built-in apps, also verify them against a dynamic run")
	)
	flag.Parse()

	opt := spechint.DefaultOptions()
	opt.StackCopyOptimization = !*noStackOpt
	opt.RemoveOutputRoutines = !*keepOutput

	if *synthesize {
		if runSynthesize(*file, *app) {
			return
		}
		os.Exit(1)
	}

	var progs []named
	switch {
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fail(err)
		}
		prog, err := asm.Assemble(string(src))
		if err != nil {
			fail(err)
		}
		progs = append(progs, named{*file, prog})
	case *app == "all":
		for _, a := range []apps.App{apps.Agrep, apps.Gnuld, apps.XDataSlice, apps.Postgres} {
			progs = append(progs, named{a.String(), buildApp(a)})
		}
	case *app != "":
		var a apps.App
		switch *app {
		case "agrep":
			a = apps.Agrep
		case "gnuld":
			a = apps.Gnuld
		case "xds", "xdataslice":
			a = apps.XDataSlice
		case "postgres":
			a = apps.Postgres
		default:
			fail(fmt.Errorf("unknown app %q", *app))
		}
		progs = append(progs, named{a.String(), buildApp(a)})
	default:
		flag.Usage()
		os.Exit(2)
	}

	bad := false
	for _, np := range progs {
		if len(progs) > 1 {
			fmt.Printf("== %s ==\n", np.name)
		}
		if !run(np.prog, opt, *lint, *dis) {
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

type named struct {
	name string
	prog *vm.Program
}

// runSynthesize handles the -synthesize mode. For a -file program it prints
// the hint report, proved sites first; for built-in apps it also runs each app
// in static mode and audits the synthesized hints against the dynamic
// read-site statistics. It returns false if any hint failed verification.
func runSynthesize(file, app string) bool {
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			fail(err)
		}
		prog, err := asm.Assemble(string(src))
		if err != nil {
			fail(err)
		}
		report, err := analysis.Synthesize(prog)
		if err != nil {
			fail(err)
		}
		fmt.Print(report.String())
		fmt.Println("(no workload for a -file program: dynamic verification skipped)")
		return true
	}

	var list []apps.App
	switch app {
	case "all":
		list = []apps.App{apps.Agrep, apps.Gnuld, apps.XDataSlice, apps.Postgres}
	case "agrep":
		list = []apps.App{apps.Agrep}
	case "gnuld":
		list = []apps.App{apps.Gnuld}
	case "xds", "xdataslice":
		list = []apps.App{apps.XDataSlice}
	case "postgres":
		list = []apps.App{apps.Postgres}
	default:
		fail(fmt.Errorf("-synthesize needs -file or -app agrep|gnuld|xds|postgres|all, got app %q", app))
	}

	// Sweep scale matches the sweep-scale rows of bench/golden/cells.txt.
	scale := apps.SweepScale()
	ok := true
	for _, a := range list {
		if len(list) > 1 {
			fmt.Printf("== %s ==\n", a)
		}
		b, err := apps.Build(a, scale)
		if err != nil {
			fail(err)
		}
		report, err := bench.Synth(b)
		if err != nil {
			fail(err)
		}
		fmt.Print(report.String())

		st, err := bench.Cell{App: a, Mode: core.ModeStatic, Scale: scale}.Run()
		if err != nil {
			fail(err)
		}
		findings := report.Verify(bench.DynStats(st))
		if len(findings) == 0 {
			fmt.Printf("dynamic verification: ok (%d hints, %d hinted reads, 0 bypassed)\n\n",
				len(report.Hints), st.HintedReads)
			continue
		}
		ok = false
		fmt.Print(analysis.FormatFindings(b.Original, findings))
		fmt.Println()
	}
	return ok
}

func buildApp(a apps.App) *vm.Program {
	bundle, err := apps.Build(a, apps.FullScale())
	if err != nil {
		fail(err)
	}
	return bundle.Original
}

// run processes one program; it returns false when lint found violations.
func run(prog *vm.Program, opt spechint.Options, lint, dis bool) bool {
	if !lint {
		if err := reportTransform(os.Stdout, os.Stderr, prog, opt, dis); err != nil {
			fail(err)
		}
		return true
	}
	out, _, err := spechint.Transform(prog, opt)
	if err != nil {
		fail(err)
	}
	findings := analysis.Lint(out, opt)
	fmt.Print(analysis.FormatFindings(out, findings))
	if dis {
		fmt.Println()
		fmt.Print(asm.Disassemble(out))
	}
	return len(findings) == 0
}

// reportTransform transforms prog and writes the statistics report to w.
// The wall-clock timing line goes to errw (stderr in main): it varies run to
// run, and keeping it off stdout makes the report byte-identical across
// repeated invocations — scripts can diff or checksum the output.
func reportTransform(w, errw io.Writer, prog *vm.Program, opt spechint.Options, dis bool) error {
	out, st, err := spechint.Transform(prog, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(errw, "transformed in %v\n", st.Elapsed)
	fmt.Fprintf(w, "  text:            %d -> %d instructions (%d -> %d bytes, +%.0f%%)\n",
		st.OrigInstrs, st.TotalInstrs, st.OrigBytes, st.TotalBytes, st.SizeIncreasePct())
	fmt.Fprintf(w, "  COW checks:      %d inserted, %d SP-relative accesses skipped\n",
		st.ChecksAdded, st.StackSkipped)
	fmt.Fprintf(w, "  control flow:    %d static redirects, %d dynamic-handler sites, %d recognized jump tables\n",
		st.StaticJumps, st.DynamicJumps, st.TablesStatic)
	fmt.Fprintf(w, "  output routines: %d removed from shadow code\n", st.OutputCalls)
	fmt.Fprintf(w, "  hint sites:      %d read calls become hint generators\n", st.HintSites)
	if dis {
		fmt.Fprintln(w)
		fmt.Fprint(w, asm.Disassemble(out))
	}
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "spechint: %v\n", err)
	os.Exit(1)
}
