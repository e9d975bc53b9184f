package cluster

import "testing"

// sampleKeys enumerates a deterministic key set: every placement group of a
// small corpus.
func sampleKeys(files int, groups int64) [][2]int64 {
	var keys [][2]int64
	for f := 0; f < files; f++ {
		for g := int64(0); g < groups; g++ {
			keys = append(keys, [2]int64{int64(f), g})
		}
	}
	return keys
}

// TestRingDeterministic: two rings built from the same parameters place every
// key identically — the property cross-run byte-identity rests on.
func TestRingDeterministic(t *testing.T) {
	a, err := newRing(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newRing(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sampleKeys(50, 16) {
		if a.owner(int(k[0]), k[1]) != b.owner(int(k[0]), k[1]) {
			t.Fatalf("placement of (%d,%d) differs between identical rings", k[0], k[1])
		}
	}
}

// TestRingRebalanceBound: growing the ring from N to N+1 shards moves only
// keys onto the NEW shard, and about K/(N+1) of them — the consistent-hashing
// contract that makes shard growth cheap.
func TestRingRebalanceBound(t *testing.T) {
	keys := sampleKeys(200, 8) // 1600 keys
	for _, n := range []int{1, 2, 4, 8} {
		old, err := newRing(n, 64)
		if err != nil {
			t.Fatal(err)
		}
		grown, err := newRing(n+1, 64)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, k := range keys {
			a, b := old.owner(int(k[0]), k[1]), grown.owner(int(k[0]), k[1])
			if a == b {
				continue
			}
			moved++
			if b != n {
				t.Fatalf("N=%d: key (%d,%d) moved %d->%d, not to the new shard %d", n, k[0], k[1], a, b, n)
			}
		}
		expect := len(keys) / (n + 1)
		if moved > expect*5/2 {
			t.Errorf("N=%d->%d moved %d keys, want about %d (allowing 2.5x)", n, n+1, moved, expect)
		}
		if moved == 0 {
			t.Errorf("N=%d->%d moved no keys; the new shard owns nothing", n, n+1)
		}
	}
}

// TestRingBalance: with 64 vnodes per shard the per-shard load stays within a
// small constant factor of fair share.
func TestRingBalance(t *testing.T) {
	const shards = 8
	r, err := newRing(shards, 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	keys := sampleKeys(1000, 10) // 10k keys
	for _, k := range keys {
		counts[r.owner(int(k[0]), k[1])]++
	}
	fair := len(keys) / shards
	for s, c := range counts {
		if c < fair*2/5 || c > fair*2 {
			t.Errorf("shard %d owns %d keys, fair share %d (want within [0.4x, 2x])", s, c, fair)
		}
	}
}

// TestRingValidation rejects degenerate parameters.
func TestRingValidation(t *testing.T) {
	if _, err := newRing(0, 64); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := newRing(2, 0); err == nil {
		t.Error("0 vnodes accepted")
	}
}

// TestSplitRange: parts tile the requested range in offset order, each part's
// blocks belong to its shard, and consecutive same-owner groups merge.
func TestSplitRange(t *testing.T) {
	r, err := newRing(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	const (
		bs       = int64(8192)
		gb       = int64(4)
		file     = 7
		fileSize = 64 * bs
	)
	for _, rng := range [][2]int64{{0, 64 * bs}, {bs, 10 * bs}, {3 * bs, 5 * bs}, {60 * bs, 100 * bs}} {
		off, n := rng[0], rng[1]
		parts := splitRange(nil, r, gb, bs, file, off, n, fileSize)
		end := off + n
		if end > fileSize {
			end = fileSize
		}
		next := off
		for i, p := range parts {
			if p.Off != next || p.N < 1 {
				t.Fatalf("range [%d,+%d): part %d = %+v does not continue at %d", off, n, i, p, next)
			}
			next = p.Off + p.N
			for b := p.Off / bs; b <= (p.Off+p.N-1)/bs; b++ {
				if owner := r.owner(file, b/gb); owner != p.Shard {
					t.Fatalf("part %+v contains block %d owned by shard %d", p, b, owner)
				}
			}
			if i > 0 && parts[i-1].Shard == p.Shard {
				t.Fatalf("parts %d and %d share shard %d but were not merged", i-1, i, p.Shard)
			}
		}
		if next != end {
			t.Fatalf("range [%d,+%d): parts cover to %d, want %d", off, n, next, end)
		}
	}
	if parts := splitRange(nil, r, gb, bs, file, fileSize, bs, fileSize); parts != nil {
		t.Errorf("read past EOF produced parts %v", parts)
	}
}

// TestRingFailoverReroute: marking a shard dead moves ONLY its keys, moves
// them ONLY to live shards, and leaves every other key's owner untouched —
// the failover contract that bounds key movement to the dead shard's share.
func TestRingFailoverReroute(t *testing.T) {
	const shards = 4
	r, err := newRing(shards, 64)
	if err != nil {
		t.Fatal(err)
	}
	keys := sampleKeys(200, 8) // 1600 keys
	baseline := make([]int, len(keys))
	for i, k := range keys {
		baseline[i] = r.owner(int(k[0]), k[1])
	}

	const dead = 2
	r.markDead(dead)
	if r.Live() != shards-1 || r.Alive(dead) {
		t.Fatalf("after MarkDead: live=%d alive(%d)=%v", r.Live(), dead, r.Alive(dead))
	}
	moved := 0
	for i, k := range keys {
		got := r.owner(int(k[0]), k[1])
		if baseline[i] != dead {
			if got != baseline[i] {
				t.Fatalf("key (%d,%d) owned by live shard %d moved to %d", k[0], k[1], baseline[i], got)
			}
			continue
		}
		moved++
		if got == dead {
			t.Fatalf("key (%d,%d) still routed to dead shard %d", k[0], k[1], dead)
		}
		if !r.Alive(got) {
			t.Fatalf("key (%d,%d) routed to dead shard %d", k[0], k[1], got)
		}
	}
	if moved == 0 {
		t.Fatal("dead shard owned no keys; the test proves nothing")
	}
	if bound := 2 * len(keys) / shards; moved > bound {
		t.Errorf("death of 1/%d shards moved %d of %d keys, want <= %d", shards, moved, len(keys), bound)
	}

	// Revival restores the original placement exactly, deterministically.
	r.Revive(dead)
	for i, k := range keys {
		if got := r.owner(int(k[0]), k[1]); got != baseline[i] {
			t.Fatalf("after revival key (%d,%d) owned by %d, originally %d", k[0], k[1], got, baseline[i])
		}
	}
}

// TestRingFailoverCascade: with repeated deaths the survivors absorb the
// orphaned keys; killing the last shard panics rather than placing keys on a
// serverless ring, and double-kill/double-revive are idempotent.
func TestRingFailoverCascade(t *testing.T) {
	r, err := newRing(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	keys := sampleKeys(100, 8)
	r.markDead(0)
	r.markDead(0) // idempotent
	r.markDead(1)
	if r.Live() != 1 {
		t.Fatalf("live = %d, want 1", r.Live())
	}
	for _, k := range keys {
		if got := r.owner(int(k[0]), k[1]); got != 2 {
			t.Fatalf("sole survivor does not own key (%d,%d): owner %d", k[0], k[1], got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("killing the last live shard did not panic")
		}
	}()
	r.markDead(2)
}

// Live returns how many shards are currently alive.
func (r *Ring) Live() int { return r.live }

// Alive reports whether shard s is alive.
func (r *Ring) Alive(s int) bool { return !r.dead[s] }

// Revive returns shard s to the placement. Because the points themselves
// never move, revival restores the original ownership of every key exactly.
func (r *Ring) Revive(s int) {
	if !r.dead[s] {
		return
	}
	r.dead[s] = false
	r.live++
}
