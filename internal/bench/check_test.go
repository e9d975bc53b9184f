package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

func multiJSONFor(t *testing.T, points []MultiPoint) []byte {
	t.Helper()
	out, err := json.Marshal(MultiReport{"multi", len(points), points})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCheckMultiIdentical(t *testing.T) {
	doc := multiJSONFor(t, []MultiPoint{
		{N: 1, OrigSec: 3.68, SpecSec: 0.99, ImprovementPct: 73.1},
		{N: 2, OrigSec: 140.6, SpecSec: 37.4, ImprovementPct: 73.4},
	})
	if err := CheckMulti(doc, doc, 10); err != nil {
		t.Fatalf("identical sweeps must pass: %v", err)
	}
}

func TestCheckMultiWithinTolerance(t *testing.T) {
	base := multiJSONFor(t, []MultiPoint{{N: 1, OrigSec: 100, SpecSec: 50, ImprovementPct: 50}})
	fresh := multiJSONFor(t, []MultiPoint{{N: 1, OrigSec: 105, SpecSec: 47, ImprovementPct: 55.2}})
	if err := CheckMulti(fresh, base, 10); err != nil {
		t.Fatalf("5%% drift must pass a 10%% tolerance: %v", err)
	}
	if err := CheckMulti(fresh, base, 4); err == nil {
		t.Fatal("6% spec drift must fail a 4% tolerance")
	}
}

func TestCheckMultiMakespanRegression(t *testing.T) {
	base := multiJSONFor(t, []MultiPoint{{N: 1, OrigSec: 100, SpecSec: 50, ImprovementPct: 50}})
	fresh := multiJSONFor(t, []MultiPoint{{N: 1, OrigSec: 100, SpecSec: 80, ImprovementPct: 20}})
	err := CheckMulti(fresh, base, 10)
	if err == nil {
		t.Fatal("60% speculating-makespan drift must fail")
	}
	if !strings.Contains(err.Error(), "speculating makespan") {
		t.Fatalf("error should name the drifted series, got: %v", err)
	}
}

func TestCheckMultiWhoWinsFlip(t *testing.T) {
	// A flipped winner must fail even when the makespans themselves sit
	// inside a (generous) tolerance band.
	base := multiJSONFor(t, []MultiPoint{{N: 2, OrigSec: 100, SpecSec: 95, ImprovementPct: 5}})
	fresh := multiJSONFor(t, []MultiPoint{{N: 2, OrigSec: 95, SpecSec: 100, ImprovementPct: -5.3}})
	err := CheckMulti(fresh, base, 20)
	if err == nil {
		t.Fatal("who-wins flip must fail regardless of tolerance")
	}
	if !strings.Contains(err.Error(), "Figure 3 shape regression") {
		t.Fatalf("error should call out the shape regression, got: %v", err)
	}
}

func TestCheckMultiNearTieMayFlip(t *testing.T) {
	// Inside the dead band (baseline improvement <= 2%) a sign flip is
	// noise, not a regression.
	base := multiJSONFor(t, []MultiPoint{{N: 1, OrigSec: 100, SpecSec: 99, ImprovementPct: 1}})
	fresh := multiJSONFor(t, []MultiPoint{{N: 1, OrigSec: 99, SpecSec: 100, ImprovementPct: -1}})
	if err := CheckMulti(fresh, base, 10); err != nil {
		t.Fatalf("near-tie flip should pass: %v", err)
	}
}

func TestCheckMultiShapeMismatch(t *testing.T) {
	base := multiJSONFor(t, []MultiPoint{{N: 1}, {N: 2}})
	fresh := multiJSONFor(t, []MultiPoint{{N: 1}})
	if err := CheckMulti(fresh, base, 10); err == nil {
		t.Fatal("point-count mismatch must fail")
	}
}

func TestCheckMultiReportsEveryRegression(t *testing.T) {
	base := multiJSONFor(t, []MultiPoint{
		{N: 1, OrigSec: 100, SpecSec: 50, ImprovementPct: 50},
		{N: 2, OrigSec: 200, SpecSec: 100, ImprovementPct: 50},
	})
	fresh := multiJSONFor(t, []MultiPoint{
		{N: 1, OrigSec: 150, SpecSec: 50, ImprovementPct: 66.7},
		{N: 2, OrigSec: 200, SpecSec: 170, ImprovementPct: 15},
	})
	err := CheckMulti(fresh, base, 10)
	if err == nil {
		t.Fatal("expected both points to regress")
	}
	if !strings.Contains(err.Error(), "2 regressions") {
		t.Fatalf("want both regressions reported, got: %v", err)
	}
}
