// Gnuld example: the paper's hard case — an object-code linker whose reads
// chase pointers through metadata (header -> symbol header -> symbol tables
// -> debug chunks). Data dependencies cap what speculation can hint, and
// strayed speculation issues erroneous hints; the restart protocol and TIP's
// accuracy discounting keep the damage bounded.
//
//	go run ./examples/gnuld [-objects N] [-disks D] [-throttle]
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
	objects := flag.Int("objects", 240, "object files to link")
	disks := flag.Int("disks", 4, "disks in the array")
	throttle := flag.Bool("throttle", false, "enable the §5 cancel throttle")
	flag.Parse()

	scale := apps.FullScale()
	scale.Gnuld.NumFiles = *objects
	c := bench.Cell{App: apps.Gnuld, Scale: scale, Disks: *disks}
	if *throttle {
		c.Limiter = bench.FixedLimiter
	}

	fmt.Printf("Gnuld: linking %d object files on %d disks (throttle: %v)\n\n",
		*objects, *disks, *throttle)

	tr, err := bench.RunTriple(c)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("link checksum: %d; output written: %d KB (all builds agree)\n\n",
		tr.Orig.ExitCode, tr.Orig.WriteBytes/1024)

	fmt.Printf("%-12s %10s %10s %12s %12s %10s\n",
		"build", "elapsed", "reads", "hinted", "erroneous", "restarts")
	for _, row := range []struct {
		name string
		st   *core.RunStats
	}{{"original", tr.Orig}, {"speculating", tr.Spec}, {"manual", tr.Manual}} {
		fmt.Printf("%-12s %9.2fs %10d %11.1f%% %12d %10d\n", row.name,
			row.st.Seconds(), row.st.ReadCalls,
			100*float64(row.st.HintedReads)/float64(row.st.ReadCalls),
			row.st.Tip.InaccurateCalls(), row.st.Restarts)
	}

	fmt.Printf("\nspeculating improvement: %.0f%%   manual improvement: %.0f%%\n",
		bench.Improvement(tr.Orig, tr.Spec), bench.Improvement(tr.Orig, tr.Manual))
	fmt.Println("\nwhy speculation trails manual here (paper §4.4): a read that depends")
	fmt.Println("on a prior read cannot be hinted unless an I/O stall separates them,")
	fmt.Println("and the manual build was restructured to batch its metadata passes.")
}
