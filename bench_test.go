// Package spechint_bench times the experiments as Go benchmarks:
// BenchmarkExperiment/<name> runs every entry of bench.Registry — the same
// functions `tipbench -exp <name>` calls — at test scale, so
// `go test -bench=. -benchmem` exercises the full system and reports each
// experiment's host cost. The tables themselves are printed by cmd/tipbench.
package spechint_bench

import (
	"runtime"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/bench"
	"spechint/internal/spechint"
)

func BenchmarkExperiment(b *testing.B) {
	for _, name := range bench.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunByName(name, apps.TestScale()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransform measures SpecHint tool throughput on the largest app.
func BenchmarkTransform(b *testing.B) {
	bundle, err := apps.Build(apps.Gnuld, apps.FullScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spechint.Transform(bundle.Original, spechint.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkSweepWidth regenerates Figure 3 (nine independent simulation
// cells) with the given worker-pool width. Comparing the Serial and
// Parallel variants measures the fan-out engine's wall-clock win on this
// host; outputs are byte-identical at any width, so only time differs.
func benchmarkSweepWidth(b *testing.B, workers int) {
	old := bench.Parallelism
	bench.Parallelism = workers
	defer func() { bench.Parallelism = old }()
	scale := apps.SweepScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunByName("fig3", scale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSerial(b *testing.B)   { benchmarkSweepWidth(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchmarkSweepWidth(b, runtime.NumCPU()) }
