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

// ledgerPath holds two SHA-256 hashes per (depth, seed) of the pump model
// script's observable stream. The first covers the pump's decisions: the disk
// requests in the order they enter service, the read completions and every
// eviction victim. The second covers the (owner, hint distance) of every Valid
// block after every step. A change that keeps the pump's policy must keep the
// first; the second moves with the distance rule (cache.Dist) as well, so a
// change to the rule alone retakes only that column and says why.
const ledgerPath = "testdata/pump_ledger.txt"

// ledgerStream runs the model script of pump_model_test.go for one seed on a
// single rig and hashes what the rest of the system can see of the pump, step
// by step: the decisions and the Valid blocks' distances, each into its own
// hash (see ledgerPath).
func ledgerStream(t *testing.T, depth int, seed int64) (decisions, distances string) {
	r := newPumpRig(t, depth, false)
	tr := obs.New(obs.Config{MaxEvents: 1 << 24})
	r.m.SetObs(tr)
	script := &pumpScript{rng: rand.New(rand.NewSource(seed)), open: make([]bool, 5),
		pending: make([][]pumpStep, 5), seq: make([]int64, 5)}
	for i := range script.open {
		script.open[i] = true
	}
	hd, hv := sha256.New(), sha256.New()
	reqs, dones, events := 0, 0, 0
	for i := 0; i < pumpLedgerSteps; i++ {
		s := script.next()
		if i == pumpLedgerSteps-1 {
			s = &pumpStep{kind: "run", events: 1 << 20} // drain
		}
		r.apply(s)
		fmt.Fprintf(hd, "step %d\n", i)
		for _, l := range r.inj.log[reqs:] {
			fmt.Fprintln(hd, l)
		}
		for _, l := range r.dones[dones:] {
			fmt.Fprintln(hd, l)
		}
		evs := tr.Events()
		for _, e := range evs[events:] {
			if e.Name == "evict" {
				fmt.Fprintf(hd, "t=%d evict %s\n", e.At, e.Detail)
			}
		}
		reqs, dones, events = len(r.inj.log), len(r.dones), len(evs)
		fmt.Fprintf(hv, "step %d\n", i)
		hashValid(hv, r.m)
	}
	if tr.Dropped() > 0 {
		t.Fatalf("depth %d seed %d: the trace dropped %d events", depth, seed, tr.Dropped())
	}
	return fmt.Sprintf("%x", hd.Sum(nil)), fmt.Sprintf("%x", hv.Sum(nil))
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

// TestPumpLedger replays the pump model script's seeds and holds each stream's
// two hashes to the ones recorded in testdata (go test ./internal/tip -run
// PumpLedger -update-ledger rewrites them).
func TestPumpLedger(t *testing.T) {
	want := map[string][]string{}
	if !*updateLedger {
		data, err := os.ReadFile(ledgerPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if f := strings.Fields(line); len(f) == 3 {
				want[f[0]] = f[1:]
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
			dec, dist := ledgerStream(t, depth, seed)
			fmt.Fprintf(&out, "%s %s %s\n", key, dec, dist)
			if *updateLedger {
				continue
			}
			if w := want[key]; len(w) != 2 {
				t.Errorf("%s: no ledger entry", key)
			} else {
				if dec != w[0] {
					t.Errorf("%s: decisions hash %s, want %s", key, dec, w[0])
				}
				if dist != w[1] {
					t.Errorf("%s: distances hash %s, want %s", key, dist, w[1])
				}
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
