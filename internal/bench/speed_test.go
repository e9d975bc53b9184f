package bench

import (
	"encoding/json"
	"testing"

	"spechint/internal/apps"
)

// The registry's speed experiment must be deterministic: it feeds the same
// golden/differential machinery as every other experiment, so two runs must
// be byte-identical (no wall clock, no allocation averages in the output).
func TestSpeedDeterministic(t *testing.T) {
	a, err := speedSelfCheck()
	if err != nil {
		t.Fatal(err)
	}
	b, err := speedSelfCheck()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("Speed output differs between runs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("Speed produced empty output")
	}
}

// SpeedJSON's wall numbers vary by machine, but its shape must not: the CI
// smoke jq-checks schema, cell names, and positive throughput.
func TestSpeedJSONShape(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement loop")
	}
	rep, err := SpeedJSON(apps.TestScale(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != SpeedSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, SpeedSchema)
	}
	want := map[string]bool{"steady512": false, "burst64": false, "vmstep": false}
	for _, c := range append(append([]SpeedCell{}, rep.EventLoop...), rep.VM...) {
		if _, ok := want[c.Name]; !ok {
			t.Fatalf("unexpected cell %q", c.Name)
		}
		want[c.Name] = true
		if c.PerSec <= 0 || c.NsPerOp <= 0 {
			t.Fatalf("cell %q has non-positive throughput: %+v", c.Name, c)
		}
		// The free-list and pre-decoded fast paths must stay allocation-free.
		if c.AllocsPerOp != 0 {
			t.Fatalf("cell %q allocates %.3f/op, want 0", c.Name, c.AllocsPerOp)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("missing cell %q", name)
		}
	}
	if rep.EndToEnd.WallMS <= 0 || rep.EndToEnd.Runs != 3*len(Apps) {
		t.Fatalf("bad end-to-end arm: %+v", rep.EndToEnd)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not marshalable: %v", err)
	}
}
