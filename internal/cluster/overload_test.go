package cluster

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"spechint/internal/clients"
	"spechint/internal/fault"
	"spechint/internal/sim"
)

// hotPop generates a deliberately overloading population: many clients
// arriving nearly at once with minimal think time, so the offered load is
// well above what two testbed shards can serve.
func hotPop(t *testing.T) *clients.Population {
	t.Helper()
	pop, err := clients.Generate(clients.Config{
		N: 32, Sessions: 4,
		Files: 16, FileBlocks: 64, BlockSize: 8192,
		SessionBlocks: 64, ReadBlocks: 4,
		ArrivalMean: 500_000, ThinkMean: 10_000,
		ZipfS: 1.2, ZipfV: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func runOverload(t *testing.T, cfg Config, pop *clients.Population) *Result {
	t.Helper()
	c, err := New(cfg, pop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterOverloadSheds: an overloading population against an armed
// admission layer sheds work, the clients retry, and every offered part is
// ruled exactly once (Check enforces Admitted + Shed + Failed == Offered).
// Every session still completes: abandoned ops count as failed reads, and
// reads + failed == the population's total.
func TestClusterOverloadSheds(t *testing.T) {
	pop := hotPop(t)
	res := runOverload(t, OverloadConfig(2), pop)

	var shed, offered int64
	for _, s := range res.Shards {
		shed += s.Stats.Shed
		offered += s.Stats.Offered
	}
	if shed == 0 {
		t.Error("overload config against a hot population never shed")
	}
	if res.ShedSeen != shed {
		t.Errorf("clients saw %d sheds, shards issued %d", res.ShedSeen, shed)
	}
	if res.Retries == 0 {
		t.Error("clients never retried despite sheds")
	}
	if got := res.Reads + res.FailedReads; got < pop.TotalReads {
		t.Errorf("reads %d + failed %d < total %d: ops vanished", res.Reads, res.FailedReads, pop.TotalReads)
	}
	if res.Reads == 0 {
		t.Error("no read ever completed under overload")
	}
	for _, s := range res.Shards {
		if s.Stats.PeakQueue == 0 {
			t.Errorf("shard %d never queued a part under overload", s.ID)
		}
	}
}

// TestClusterOverloadDeterministic: overload runs — sheds, backoffs, retries
// and all — are byte-identical across repetitions.
func TestClusterOverloadDeterministic(t *testing.T) {
	a := runOverload(t, OverloadConfig(2), hotPop(t))
	b := runOverload(t, OverloadConfig(2), hotPop(t))
	if !reflect.DeepEqual(a, b) {
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		t.Fatalf("identical overload configs diverged:\n%s\nvs\n%s", ja, jb)
	}
}

// TestClusterNoAdmissionNeverSheds: with the admission layer off (the
// default config) nothing is ever shed or failed, and the overload counters
// stay zero — the original PR7 behavior is preserved exactly.
func TestClusterNoAdmissionNeverSheds(t *testing.T) {
	res := runOverload(t, DefaultConfig(2), testPop(t))
	if res.ShedSeen != 0 || res.FailedReads != 0 || res.Retries != 0 || res.DeadSeen != 0 {
		t.Errorf("default config produced overload traffic: %+v", res)
	}
	for _, s := range res.Shards {
		if s.Stats.Offered != s.Stats.Admitted {
			t.Errorf("shard %d: offered %d != admitted %d with admission off",
				s.ID, s.Stats.Offered, s.Stats.Admitted)
		}
	}
}

// TestClusterShardDeathFailover: killing a shard mid-run fails its queued
// work, the ring re-routes its keys, and client retries land on the
// survivor — every session completes and the dead shard serves nothing
// after its death.
func TestClusterShardDeathFailover(t *testing.T) {
	pop := hotPop(t)
	cfg := DefaultConfig(4)
	plan := fault.NewPlan(1)
	plan.DieShard = 2
	plan.DieShardAt = 160_000_000
	cfg.Fault = plan
	cfg.DetectCycles = 20_000_000 // a slow detector: ~86 ms of stale routing

	res := runOverload(t, cfg, pop)

	if res.DeadSeen == 0 {
		t.Error("no client ever saw a DEAD reply from the killed shard")
	}
	if res.Retries == 0 {
		t.Error("no client ever retried after the shard died")
	}
	if got := res.Reads + res.FailedReads; got != pop.TotalReads {
		t.Errorf("reads %d + failed %d != total %d after failover", res.Reads, res.FailedReads, pop.TotalReads)
	}
	// Failover should serve nearly everything: the survivors own the dead
	// shard's keys, so only ops that exhausted their attempts mid-transition
	// may fail.
	if res.FailedReads > pop.TotalReads/10 {
		t.Errorf("failover lost %d of %d reads", res.FailedReads, pop.TotalReads)
	}
	dead := res.Shards[2].Stats
	if dead.Failed == 0 {
		t.Error("killed shard never failed a part")
	}
	live := int64(0)
	for i, s := range res.Shards {
		if i != 2 {
			live += s.Stats.ReadParts
		}
	}
	if live == 0 {
		t.Error("survivors served nothing")
	}
}

// TestClusterShardDeathDeterministic: the failover path is as reproducible
// as the healthy path.
func TestClusterShardDeathDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := DefaultConfig(4)
		plan := fault.NewPlan(1)
		plan.DieShard = 1
		plan.DieShardAt = 160_000_000
		cfg.Fault = plan
		cfg.DetectCycles = 20_000_000
		return runOverload(t, cfg, hotPop(t))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical failover configs diverged")
	}
}

// TestClusterBrownout: a brownout window stretches the victim's service, so
// with admission armed the victim sheds while healthy shards carry on.
func TestClusterBrownout(t *testing.T) {
	cfg := OverloadConfig(2)
	plan := fault.NewPlan(1)
	plan.BrownShard = 0
	plan.BrownAt = 1_000_000
	plan.BrownUntil = sim.Time(1 << 40)
	plan.BrownFactor = 16
	cfg.Fault = plan

	res := runOverload(t, cfg, hotPop(t))
	if res.Shards[0].Stats.Shed == 0 {
		t.Error("browned-out shard under a hot population never shed")
	}
	if res.Reads == 0 {
		t.Error("no read completed during the brownout")
	}
}

// TestClusterOverloadValidate: the new config knobs reject nonsense.
func TestClusterOverloadValidate(t *testing.T) {
	pop := testPop(t)
	bad := []func(*Config){
		func(c *Config) { c.Admission = true; c.MaxInflight = 0 },
		func(c *Config) { c.MaxInflight = -1 },
		func(c *Config) { c.Retry.MaxAttempts = 0 },
		func(c *Config) {
			p := fault.NewPlan(1)
			p.DieShard = 7
			p.DieShardAt = 1
			c.Fault = p // kills a shard the cluster doesn't have
		},
		func(c *Config) {
			p := fault.NewPlan(1)
			p.DieShard = 0
			p.DieShardAt = 1
			c.Shards = 1
			c.Fault = p // cannot kill the only shard
		},
	}
	for i, mut := range bad {
		cfg := DefaultConfig(2)
		mut(&cfg)
		if _, err := New(cfg, pop); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// A client's sessions must come in arrival order.
	swapped := *pop
	swapped.Clients = slices.Clone(pop.Clients)
	cl := &swapped.Clients[0]
	cl.Sessions = slices.Clone(cl.Sessions)
	cl.Sessions[0], cl.Sessions[1] = cl.Sessions[1], cl.Sessions[0]
	if _, err := New(DefaultConfig(2), &swapped); err == nil {
		t.Error("a client whose sessions are out of arrival order accepted")
	}
}
