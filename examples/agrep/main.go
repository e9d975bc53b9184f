// Agrep example: the paper's text-search benchmark end to end.
//
// Agrep's read stream is completely determined by its argument list, so
// speculative execution hints essentially every data-returning read and
// matches the manually-hinted build — the paper's best case.
//
//	go run ./examples/agrep [-files N] [-disks D]
package main

import (
	"flag"
	"fmt"
	"log"

	"spechint/internal/apps"
	"spechint/internal/bench"
	"spechint/internal/core"
)

func main() {
	files := flag.Int("files", 200, "number of source files to search")
	disks := flag.Int("disks", 4, "disks in the array")
	flag.Parse()

	scale := apps.FullScale()
	scale.Agrep.NumFiles = *files

	fmt.Printf("Agrep: searching %d files for %q on %d disks\n\n",
		*files, scale.Agrep.Pattern, *disks)

	tr, err := bench.RunTriple(bench.Cell{App: apps.Agrep, Scale: scale, Disks: *disks})
	if err != nil {
		log.Fatal(err)
	}

	matches := tr.Orig.ExitCode >> 20
	fmt.Printf("pattern matches found: %d (all three builds agree)\n\n", matches)

	fmt.Printf("%-12s %10s %10s %12s %10s\n", "build", "elapsed", "reads", "hinted", "restarts")
	for _, row := range []struct {
		name string
		st   *core.RunStats
	}{{"original", tr.Orig}, {"speculating", tr.Spec}, {"manual", tr.Manual}} {
		fmt.Printf("%-12s %9.2fs %10d %11.1f%% %10d\n", row.name,
			row.st.Seconds(), row.st.ReadCalls,
			100*float64(row.st.HintedReads)/float64(row.st.ReadCalls),
			row.st.Restarts)
	}

	fmt.Printf("\nspeculating improvement: %.0f%%   manual improvement: %.0f%%\n",
		bench.Improvement(tr.Orig, tr.Spec), bench.Improvement(tr.Orig, tr.Manual))
	fmt.Printf("dilation factor (hint interval / read interval): %.1f\n", tr.Spec.DilationFactor())
	fmt.Printf("(the EOF read per file is never hinted, which is why coverage is ~%d%%\n",
		int(100*float64(tr.Spec.HintedReads)/float64(tr.Spec.ReadCalls)))
	fmt.Println(" of calls but >99% of bytes, exactly as the paper's Table 4 explains)")
}
