package bench

import (
	"bytes"
	"testing"

	"spechint/internal/apps"
)

// withParallelism runs fn at the given pool width, restoring the package
// setting afterwards. The bench package contract is that Parallelism is
// configured once before experiments run; tests in this package do not run
// concurrently with each other, so swapping it here is safe.
func withParallelism(w int, fn func()) {
	old := Parallelism
	Parallelism = w
	defer func() { Parallelism = old }()
	fn()
}

// TestSerialParallelIdentical is the differential determinism check at the
// heart of the fan-out design: every experiment in the registry must render
// byte-identical output — the text table and, for the sweep families, the
// encoded JSON the committed baselines are built from — with -parallel 1 and
// a multi-worker pool, from one run per width. Cells are simulated in
// whatever order the workers reach them; the assembled report must not care.
// Run under -race this also checks the cells share no mutable state. The
// speed family's JSON is wall-clock and is the one exemption.
func TestSerialParallelIdentical(t *testing.T) {
	scale := apps.TestScale()
	render := func(t *testing.T, e Experiment, width int) (text string, enc []byte) {
		withParallelism(width, func() {
			rep, err := e.Run(scale)
			if err != nil {
				t.Fatalf("-parallel %d: %v", width, err)
			}
			text = rep.Text()
			if e.JSON && e.Name != "speed" {
				if enc, err = Encode(rep); err != nil {
					t.Fatalf("-parallel %d: %v", width, err)
				}
			}
		})
		return text, enc
	}
	for _, name := range Names() {
		e := Registry[name]
		if e.Heavy && testing.Short() {
			continue
		}
		t.Run(name, func(t *testing.T) {
			serialText, serialJSON := render(t, e, 1)
			wideText, wideJSON := render(t, e, 4)
			if serialText != wideText {
				t.Fatalf("experiment %s renders differently serial vs parallel:\n--- serial ---\n%s\n--- parallel ---\n%s",
					name, serialText, wideText)
			}
			if !bytes.Equal(serialJSON, wideJSON) {
				t.Fatalf("experiment %s JSON depends on -parallel width: %d vs %d bytes, first diff at %d",
					name, len(serialJSON), len(wideJSON), firstDiff(serialJSON, wideJSON))
			}
		})
	}
}

// TestSerialParallelTraceIdentical repeats a traced run under both pool
// widths and byte-compares the Chrome trace and metrics exports. Traces
// record virtual (cycle) timestamps only, so the worker count must not leak
// into a single cell's event stream.
func TestSerialParallelTraceIdentical(t *testing.T) {
	render := func() (trace, metrics []byte) {
		tr, _, err := TraceMulti(apps.TestScale(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if trace, err = tr.ChromeTraceJSON(); err != nil {
			t.Fatal(err)
		}
		if metrics, err = tr.MetricsJSON(); err != nil {
			t.Fatal(err)
		}
		return trace, metrics
	}
	var ts, ms, tp, mp []byte
	withParallelism(1, func() { ts, ms = render() })
	withParallelism(4, func() { tp, mp = render() })
	if !bytes.Equal(ts, tp) {
		t.Errorf("Chrome trace differs serial vs parallel (%d vs %d bytes)", len(ts), len(tp))
	}
	if !bytes.Equal(ms, mp) {
		t.Errorf("metrics export differs serial vs parallel (%d vs %d bytes)", len(ms), len(mp))
	}
}
