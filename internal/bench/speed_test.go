package bench

import (
	"encoding/json"
	"testing"

	"spechint/internal/apps"
)

// SpeedJSON's wall numbers vary by machine, but its shape must not: schema,
// cell names, positive throughput and allocation-free fast paths.
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
