package tip

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spechint/internal/cache"
	"spechint/internal/obs"
)

var updateLedger = flag.Bool("update-ledger", false, "rewrite testdata/pump_ledger.txt")

// ledgerPath holds one SHA-256 per (depth, seed) of the pump model script's
// observable stream. The hashes were taken from a pump that stored every
// block's hint distance and rewrote it on each pass; a pump that computes the
// distance when it is read, or starts its pass anywhere else, must produce
// the same stream byte for byte.
const ledgerPath = "testdata/pump_ledger.txt"

// ledgerStream runs the model script of pump_model_test.go for one seed on a
// single rig and hashes what the rest of the system can see of the pump, step
// by step: the disk requests in the order they enter service, the read
// completions, every eviction victim, and after every step the (owner, hint
// distance) of every Valid block.
func ledgerStream(t *testing.T, depth int, seed int64) string {
	r := newPumpRig(t, depth, false)
	tr := obs.New(obs.Config{MaxEvents: 1 << 24})
	r.m.SetObs(tr)
	script := &pumpScript{rng: rand.New(rand.NewSource(seed)), open: make([]bool, 5),
		pending: make([][]pumpStep, 5), seq: make([]int64, 5)}
	for i := range script.open {
		script.open[i] = true
	}
	h := sha256.New()
	reqs, dones, events := 0, 0, 0
	for i := 0; i < pumpLedgerSteps; i++ {
		s := script.next()
		if i == pumpLedgerSteps-1 {
			s = &pumpStep{kind: "run", events: 1 << 20} // drain
		}
		r.apply(s)
		fmt.Fprintf(h, "step %d\n", i)
		for _, l := range r.inj.log[reqs:] {
			fmt.Fprintln(h, l)
		}
		for _, l := range r.dones[dones:] {
			fmt.Fprintln(h, l)
		}
		evs := tr.Events()
		for _, e := range evs[events:] {
			if e.Name == "evict" {
				fmt.Fprintf(h, "t=%d evict %s\n", e.At, e.Detail)
			}
		}
		reqs, dones, events = len(r.inj.log), len(r.dones), len(evs)
		hashValid(h, r.m)
	}
	if tr.Dropped() > 0 {
		t.Fatalf("depth %d seed %d: the trace dropped %d events", depth, seed, tr.Dropped())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// hashValid writes the owner and hint distance of every Valid block.
func hashValid(h hash.Hash, m *Manager) {
	m.cache.ForEach(func(b *cache.Block) {
		if b.State() == cache.Valid {
			fmt.Fprintf(h, "%d:o%d/d%d ", b.LB, b.Owner, m.cache.Dist(b))
		}
	})
	fmt.Fprintln(h)
}

const (
	pumpLedgerSteps = 2500
	pumpLedgerSeeds = 20
)

// TestPumpLedger replays the pump model script's seeds and holds each stream
// to the hash recorded in testdata (go test ./internal/tip -run PumpLedger
// -update-ledger rewrites it, which no change to the pump should need).
func TestPumpLedger(t *testing.T) {
	want := map[string]string{}
	if !*updateLedger {
		data, err := os.ReadFile(ledgerPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if k, v, ok := strings.Cut(line, " "); ok {
				want[k] = v
			}
		}
	}
	seeds := int64(pumpLedgerSeeds)
	if testing.Short() {
		seeds = 2
	}
	var out strings.Builder
	for _, depth := range []int{0, 1, 8} {
		for seed := int64(0); seed < seeds; seed++ {
			key := fmt.Sprintf("depth=%d/seed=%d", depth, seed)
			got := ledgerStream(t, depth, seed)
			fmt.Fprintf(&out, "%s %s\n", key, got)
			if !*updateLedger && got != want[key] {
				t.Errorf("%s: stream hash %s, want %s", key, got, want[key])
			}
		}
	}
	if *updateLedger {
		if err := os.MkdirAll(filepath.Dir(ledgerPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
