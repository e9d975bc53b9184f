package fault

import (
	"reflect"
	"testing"

	"spechint/internal/sim"
)

func TestParseRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"seed=42,rate=0.01",
		"seed=7,rate=0.05,burst=3,spike=0.02x8,failn=2,die=1@2000000000",
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := p.String(); got != spec {
			t.Errorf("Parse(%q).String() = %q", spec, got)
		}
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"rate=1.5",    // out of range
		"bogus=1",     // unknown key
		"rate",        // no value
		"die=3",       // missing @cycles
		"spike=0.5x0", // factor < 1
		"burst=0",     // < 1
		"failn=-1",    // negative
		"rate=abc",    // unparsable
		"die=1@-5",    // negative time
		// Specs that once parsed and then silently injected nothing, or
		// something the platform chose.
		"rate=NaN,seed=3",
		"spike=NaN",
		"die=-2@1e5",
		"dieshard=-2@1e5",
		"brown=-2@1e5-2e5",
		"die=1@1e300",
		"die=1@Inf",
		"dieshard=1@9.3e18",
		"brown=0@1e5-NaN",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

// FuzzParse: every spec Parse accepts is a valid plan, and its String()
// parses back to an equal plan.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"seed=42,rate=0.01",
		"seed=7,rate=0.05,burst=3,spike=0.02x8,failn=2,die=1@2e9",
		"seed=3,dieshard=1@2e9,brown=0@1e6-5e6x16",
		"spike=0x7",
		"rate=NaN,seed=3",
		"die=1@1e300",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted an invalid plan: %v", spec, err)
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("Parse(%q) = %+v, but its String() %q parses to %+v", spec, *p, p.String(), *q)
		}
	})
}

func TestParseScientificDieTime(t *testing.T) {
	p, err := Parse("die=2@1.5e9,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if p.DieDisk != 2 || int64(p.DieAt) != 1_500_000_000 {
		t.Fatalf("die parsed as disk %d at %d", p.DieDisk, p.DieAt)
	}
}

func TestOutcomeDeterminism(t *testing.T) {
	run := func() (spikes, fails int) {
		p := NewPlan(99)
		p.Rate = 0.1
		p.SpikeRate = 0.05
		p.init()
		for i := 0; i < 2000; i++ {
			sp, f := p.Outcome(i%4, int64(i), 0)
			if sp > 1 {
				spikes++
			}
			if f {
				fails++
			}
		}
		return
	}
	s1, f1 := run()
	s2, f2 := run()
	if s1 != s2 || f1 != f2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", s1, f1, s2, f2)
	}
	if f1 == 0 || s1 == 0 {
		t.Fatalf("rate 0.1/spike 0.05 over 2000 draws injected nothing (fails=%d spikes=%d)", f1, s1)
	}
	// And a different seed must differ somewhere (overwhelmingly likely).
	p := NewPlan(100)
	p.Rate = 0.1
	p.SpikeRate = 0.05
	p.init()
	diff := false
	q := NewPlan(99)
	q.Rate = 0.1
	q.SpikeRate = 0.05
	q.init()
	for i := 0; i < 2000; i++ {
		s3, f3 := p.Outcome(i%4, int64(i), 0)
		s4, f4 := q.Outcome(i%4, int64(i), 0)
		if s3 != s4 || f3 != f4 {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("seeds 99 and 100 produced identical 2000-draw streams")
	}
}

func TestBurstClusters(t *testing.T) {
	p := NewPlan(1)
	p.Rate = 0.02
	p.Burst = 4
	p.init()
	// After any triggered failure, the next Burst-1 requests on that disk
	// must also fail.
	for i := 0; i < 5000; i++ {
		_, fail := p.Outcome(0, int64(i), 0)
		if fail {
			for j := 0; j < 3; j++ {
				if _, f := p.Outcome(0, int64(i+1+j), 0); !f {
					t.Fatalf("burst broke after %d follow-ups", j)
				}
			}
			return
		}
	}
	t.Fatal("rate 0.02 over 5000 draws never fired")
}

func TestFailNThenSucceed(t *testing.T) {
	p := NewPlan(3)
	p.FailN = 2
	p.init()
	for attempt := 0; attempt < 5; attempt++ {
		_, fail := p.Outcome(1, 77, 0)
		if want := attempt < 2; fail != want {
			t.Fatalf("attempt %d: fail = %v, want %v", attempt, fail, want)
		}
	}
	// A different block has its own counter.
	if _, fail := p.Outcome(1, 78, 0); !fail {
		t.Fatal("fresh block skipped its fail-N phase")
	}
}

func TestDiskDeath(t *testing.T) {
	p := NewPlan(5)
	p.DieDisk = 2
	p.DieAt = 1000
	if p.DiskDead(2, 999) {
		t.Fatal("dead before DieAt")
	}
	if !p.DiskDead(2, 1000) {
		t.Fatal("alive at DieAt")
	}
	if p.DiskDead(1, 5000) {
		t.Fatal("wrong disk died")
	}
	p.NoteDeadHit()
	if p.Stats().DeadHits != 1 {
		t.Fatal("NoteDeadHit not counted")
	}
}

func TestSweepIndependentState(t *testing.T) {
	base := NewPlan(10)
	base.Rate = 0.5
	base.Burst = 3
	base.init()
	plans := Sweep(base, 3, 1000)
	if len(plans) != 3 {
		t.Fatalf("Sweep returned %d plans", len(plans))
	}
	seeds := map[int64]bool{}
	for _, p := range plans {
		seeds[p.Seed] = true
	}
	if len(seeds) != 3 {
		t.Fatalf("Sweep seeds not distinct: %v", seeds)
	}
	// Mutating one plan's burst state must not leak into a sibling.
	plans[0].Outcome(0, 1, 0)
	if plans[1].Stats().Requests != 0 {
		t.Fatal("sweep plans share stats state")
	}
}

func TestZeroValuePlanInjectsNothing(t *testing.T) {
	var p Plan
	for i := 0; i < 100; i++ {
		sp, fail := p.Outcome(0, int64(i), 0)
		if sp != 1 || fail {
			t.Fatalf("zero plan injected spike=%d fail=%v", sp, fail)
		}
	}
	if p.DiskDead(0, 1<<40) {
		t.Fatal("zero plan killed a disk")
	}
}

// TestShardFaults covers the cluster-level fault classes: whole-shard death
// and brownout windows, including spec round-trips and the zero-value guard.
func TestShardFaults(t *testing.T) {
	p, err := Parse("seed=3,dieshard=1@2000000000,brown=0@1000000-5000000x16")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "seed=3,dieshard=1@2000000000,brown=0@1000000-5000000x16" {
		t.Errorf("round trip = %q", got)
	}
	if p.ShardDead(1, 1_999_999_999) {
		t.Error("shard 1 dead before its death time")
	}
	if !p.ShardDead(1, 2_000_000_000) {
		t.Error("shard 1 alive at its death time")
	}
	if p.ShardDead(0, 3_000_000_000) {
		t.Error("unnamed shard 0 reported dead")
	}
	for now, want := range map[int64]int{
		999_999: 1, 1_000_000: 16, 4_999_999: 16, 5_000_000: 1,
	} {
		if got := p.ShardBrownFactor(0, sim.Time(now)); got != want {
			t.Errorf("brown factor at %d = %d, want %d", now, got, want)
		}
	}
	if p.ShardBrownFactor(1, 2_000_000) != 1 {
		t.Error("unnamed shard 1 browned out")
	}

	// Scientific notation, default factor.
	q, err := Parse("dieshard=0@1.5e9,brown=1@1e6-2e6")
	if err != nil {
		t.Fatal(err)
	}
	if q.DieShard != 0 || int64(q.DieShardAt) != 1_500_000_000 || q.BrownFactor != 8 {
		t.Errorf("parsed %+v, want shard 0 @1.5e9, default brown factor 8", q)
	}

	for _, bad := range []string{
		"dieshard=1",           // missing @cycles
		"dieshard=1@0",         // zero time
		"brown=1@5",            // missing window end
		"brown=1@5000-400",     // empty window
		"brown=1@1000-2000x1",  // factor < 2
		"brown=1@1000-2000xzz", // unparsable factor
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}

	var zero Plan
	if zero.ShardDead(0, 1e9) || zero.ShardBrownFactor(0, 1e9) != 1 {
		t.Error("zero-value plan injects shard faults")
	}
}

// ShardDead reports whether cluster shard `shard` has permanently failed as
// of now.
func (p *Plan) ShardDead(shard int, now sim.Time) bool {
	return p.DieShard == shard && p.DieShardAt > 0 && now >= p.DieShardAt
}

// Stats returns a copy of the injection counters.
func (p *Plan) Stats() Stats { return p.stats }

// Sweep returns n plans derived from a base spec with distinct seeds, for
// chaos sweeps. Seeds are base.Seed, base.Seed+step, ...
func Sweep(base *Plan, n int, step int64) []*Plan {
	plans := make([]*Plan, 0, n)
	for i := 0; i < n; i++ {
		c := *base
		c.Seed = base.Seed + int64(i)*step
		c.init()
		plans = append(plans, &c)
	}
	return plans
}
