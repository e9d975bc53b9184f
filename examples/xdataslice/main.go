// XDataSlice example: the paper's visualization benchmark — arbitrary slices
// through a 3-D volume far larger than the file cache, read one block at a
// time. After a single header read every block address is computable, so
// speculation hints nearly everything; meanwhile the OS's sequential
// read-ahead wastes most of its prefetches on this access pattern, which is
// why the original build is so slow.
//
//	go run ./examples/xdataslice [-n N] [-slices S] [-disks D]
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
	n := flag.Int("n", 512, "volume dimension (N^3 32-bit elements)")
	slices := flag.Int("slices", 25, "random slices to retrieve")
	disks := flag.Int("disks", 4, "disks in the array")
	flag.Parse()

	scale := apps.FullScale()
	scale.XDS.N = *n
	scale.XDS.NumSlices = *slices

	fmt.Printf("XDataSlice: %d slices through a %d^3 volume (%d MB) on %d disks\n\n",
		*slices, *n, int64(*n)*int64(*n)*int64(*n)*4>>20, *disks)

	tr, err := bench.RunTriple(bench.Cell{App: apps.XDataSlice, Scale: scale, Disks: *disks})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-12s %10s %10s %12s %16s\n", "build", "elapsed", "reads", "hinted", "unused prefetch")
	for _, row := range []struct {
		name string
		st   *core.RunStats
	}{{"original", tr.Orig}, {"speculating", tr.Spec}, {"manual", tr.Manual}} {
		unused := row.st.Cache.UnusedHint + row.st.Cache.UnusedRA
		pref := row.st.Tip.PrefetchedBlocks()
		pct := 0.0
		if pref > 0 {
			pct = 100 * float64(unused) / float64(pref)
		}
		fmt.Printf("%-12s %9.2fs %10d %11.1f%% %10d (%2.0f%%)\n", row.name,
			row.st.Seconds(), row.st.ReadCalls,
			100*float64(row.st.HintedReads)/float64(row.st.ReadCalls),
			unused, pct)
	}

	fmt.Printf("\nspeculating improvement: %.0f%%   manual improvement: %.0f%%\n",
		bench.Improvement(tr.Orig, tr.Spec), bench.Improvement(tr.Orig, tr.Manual))
	fmt.Println("\nnote the original build's unused prefetches: the sequential read-ahead")
	fmt.Println("policy is 'entirely too aggressive' for nonsequential reads (paper §4.4),")
	fmt.Println("while the hinting builds all but eliminate erroneous prefetching.")
}
