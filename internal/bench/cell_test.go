package bench

import (
	"bytes"
	"reflect"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/core"
)

// resetCells empties the cell table.
func resetCells() {
	cellTable.Reset()
	cellAsks.Store(0)
	cellKeys.Range(func(k, _ any) bool {
		cellKeys.Delete(k)
		return true
	})
}

// render runs one experiment and returns its text and, for a sweep family,
// its encoded JSON.
func render(t *testing.T, e Experiment, scale apps.Scale) (string, []byte) {
	t.Helper()
	rep, err := e.Run(scale)
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	var enc []byte
	if e.JSON {
		if enc, err = Encode(rep); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
	return rep.Text(), enc
}

// TestCellTableIsInvisible: an experiment renders the same text and JSON
// from a cold cell table as from one that every experiment has warmed, run
// in reverse order. A view that modified a shared RunStats, or a cell key
// that merged two different configurations, would show here.
func TestCellTableIsInvisible(t *testing.T) {
	scale := apps.TestScale()
	var names []string
	for _, name := range Names() {
		if !Registry[name].Heavy || !testing.Short() {
			names = append(names, name)
		}
	}
	coldText := map[string]string{}
	coldJSON := map[string][]byte{}
	for _, name := range names {
		resetCells()
		coldText[name], coldJSON[name] = render(t, Registry[name], scale)
	}
	resetCells()
	for i := len(names) - 1; i >= 0; i-- {
		render(t, Registry[names[i]], scale)
	}
	for _, name := range names {
		text, enc := render(t, Registry[name], scale)
		if text != coldText[name] {
			t.Errorf("%s renders differently from a warm cell table:\n--- cold ---\n%s\n--- warm ---\n%s",
				name, coldText[name], text)
		}
		if !bytes.Equal(enc, coldJSON[name]) {
			t.Errorf("%s JSON differs from a warm cell table, first diff at %d",
				name, firstDiff(enc, coldJSON[name]))
		}
	}
	if _, reused := CellCounts(); reused == 0 {
		t.Error("a warm cell table reused no cell")
	}
}

// TestRunIsUncached: bench.Run simulates on every call and leaves the cell
// table alone, so bench/perf's repeated timings of it measure runs, not
// cache hits.
func TestRunIsUncached(t *testing.T) {
	resetCells()
	a, _, err := Run(apps.Agrep, core.ModeSpeculating, apps.TestScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(apps.Agrep, core.ModeSpeculating, apps.TestScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("two Run calls returned the same *RunStats")
	}
	if simulated, reused := CellCounts(); simulated != 0 || reused != 0 {
		t.Errorf("Run touched the cell table: %d simulated, %d reused", simulated, reused)
	}
}

// TestCellKeyIsConfig: a cell and its canonical key configure the same run,
// so merging them in the table is sound, and the zero Cell is the default
// configuration.
func TestCellKeyIsConfig(t *testing.T) {
	scale := apps.TestScale()
	for _, c := range []Cell{
		{App: apps.Agrep, Scale: scale},
		{App: apps.Agrep, Scale: scale, Disks: 4, CacheMB: 12, COWRegion: 1024},
		{App: apps.Gnuld, Mode: core.ModeSpeculating, Scale: scale, Disks: 1, Limiter: FixedLimiter},
		{App: apps.XDataSlice, Mode: core.ModeManual, Scale: scale, SpeedRatio: 3, FaultRate: 0.05},
	} {
		want, got := core.DefaultConfig(c.Mode), core.DefaultConfig(c.Mode)
		c.apply(&want)
		c.key().apply(&got)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%+v: key configures a different run", c)
		}
	}
	zero := core.DefaultConfig(core.ModeNoHint)
	Cell{}.apply(&zero)
	if !reflect.DeepEqual(zero, core.DefaultConfig(core.ModeNoHint)) {
		t.Error("the zero Cell is not core.DefaultConfig")
	}
	if k := (Cell{Disks: 4, CacheMB: 12, COWRegion: 1024}).key(); k != (Cell{}) {
		t.Errorf("default knobs keyed as %+v, want the zero Cell", k)
	}
}
