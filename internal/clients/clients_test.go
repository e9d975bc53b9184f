package clients

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func testCfg() Config {
	return Config{
		N: 40, Sessions: 5,
		Files: 200, FileBlocks: 64, BlockSize: 8192,
		SessionBlocks: 24, ReadBlocks: 8,
		ArrivalMean: 10_000_000, ThinkMean: 500_000,
		ZipfS: 1.2, ZipfV: 1, Seed: 42,
	}
}

// TestGenerateDeterministic: same seed, byte-identical schedules — the
// contract tipbench's cross-width determinism rests on.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.Fingerprint(), b.Fingerprint()
	if fa != fb {
		t.Fatalf("same seed produced different schedules (%d vs %d bytes)", len(fa), len(fb))
	}

	cfg := testCfg()
	cfg.Seed++
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == fa {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestClientSchedulesIndependent: a client's schedule depends only on
// (seed, id), never on the population size, so growing N extends the
// population without perturbing existing clients.
func TestClientSchedulesIndependent(t *testing.T) {
	small, err := Generate(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.N *= 2
	big, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.Clients {
		a, b := small.Clients[i], big.Clients[i]
		if len(a.Sessions) != len(b.Sessions) {
			t.Fatalf("client %d session count changed with N", i)
		}
		for s := range a.Sessions {
			if a.Sessions[s].At != b.Sessions[s].At || a.Sessions[s].File != b.Sessions[s].File {
				t.Fatalf("client %d session %d changed with N", i, s)
			}
		}
	}
}

// TestZipfSkew: the head of the corpus receives close to its analytic
// popularity mass — the top 1% of files must dominate in proportion to the
// Zipf law, not uniformly.
func TestZipfSkew(t *testing.T) {
	cfg := testCfg()
	cfg.N, cfg.Sessions = 400, 10 // 4000 draws tightens the estimate
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topN := cfg.Files / 100 // top 1%
	if topN < 1 {
		topN = 1
	}
	got := p.FileShare(topN)
	want := ZipfShare(cfg.Files, topN, cfg.ZipfS, cfg.ZipfV)
	uniform := float64(topN) / float64(cfg.Files)
	if want <= 2*uniform {
		t.Fatalf("analytic share %.4f not skewed vs uniform %.4f; bad test parameters", want, uniform)
	}
	if math.Abs(got-want) > 0.3*want {
		t.Errorf("top-%d share = %.4f, want %.4f ±30%%", topN, got, want)
	}
}

// TestSessionShape: reads tile [0, SessionBlocks) in ReadBlocks chunks.
func TestSessionShape(t *testing.T) {
	p, err := Generate(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Cfg
	for _, c := range p.Clients {
		prevAt := int64(0)
		for _, s := range c.Sessions {
			if s.At < prevAt {
				t.Fatalf("client %d arrivals go backwards", c.ID)
			}
			prevAt = s.At
			if s.File < 0 || s.File >= cfg.Files {
				t.Fatalf("client %d file %d out of corpus", c.ID, s.File)
			}
			wantOps := int((cfg.SessionBlocks + cfg.ReadBlocks - 1) / cfg.ReadBlocks)
			if len(s.Reads) != wantOps {
				t.Fatalf("client %d session has %d ops, want %d", c.ID, len(s.Reads), wantOps)
			}
			next := int64(0)
			for _, r := range s.Reads {
				if r.Off != next || r.N < 1 || r.Think < 0 {
					t.Fatalf("client %d bad op %+v at expected off %d", c.ID, r, next)
				}
				next = r.Off + r.N
			}
			if next != cfg.SessionBlocks*cfg.BlockSize {
				t.Fatalf("client %d session covers %d bytes, want %d", c.ID, next, cfg.SessionBlocks*cfg.BlockSize)
			}
		}
	}
	if p.TotalSessions != cfg.N*cfg.Sessions {
		t.Errorf("TotalSessions = %d, want %d", p.TotalSessions, cfg.N*cfg.Sessions)
	}
	if p.TotalBlocks != int64(p.TotalSessions)*cfg.SessionBlocks {
		t.Errorf("TotalBlocks = %d, want %d", p.TotalBlocks, int64(p.TotalSessions)*cfg.SessionBlocks)
	}
}

// TestValidate rejects the obvious misconfigurations.
func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.Sessions = 0 },
		func(c *Config) { c.Files = 0 },
		func(c *Config) { c.FileBlocks = 0 },
		func(c *Config) { c.BlockSize = 0 },
		func(c *Config) { c.SessionBlocks = 0 },
		func(c *Config) { c.ReadBlocks = 0 },
		func(c *Config) { c.ArrivalMean = 0 },
		func(c *Config) { c.ThinkMean = -1 },
		func(c *Config) { c.ZipfS = 1 },
		func(c *Config) { c.ZipfV = 0.5 },
	}
	for i, mut := range bad {
		cfg := testCfg()
		mut(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

// Fingerprint renders the whole schedule as a canonical text form; two
// populations are byte-identical iff their fingerprints are. Tests use it to
// pin the determinism contract.
func (p *Population) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d sessions=%d files=%d fb=%d bs=%d sb=%d rb=%d am=%d tm=%d s=%g v=%g seed=%d\n",
		p.Cfg.N, p.Cfg.Sessions, p.Cfg.Files, p.Cfg.FileBlocks, p.Cfg.BlockSize,
		p.Cfg.SessionBlocks, p.Cfg.ReadBlocks, p.Cfg.ArrivalMean, p.Cfg.ThinkMean,
		p.Cfg.ZipfS, p.Cfg.ZipfV, p.Cfg.Seed)
	for _, c := range p.Clients {
		for si, s := range c.Sessions {
			fmt.Fprintf(&b, "c%d.%d at=%d f=%d:", c.ID, si, s.At, s.File)
			for _, r := range s.Reads {
				fmt.Fprintf(&b, " %d+%d/%d", r.Off, r.N, r.Think)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// FileShare returns the fraction of the population's sessions that open a
// file with index < topN — the empirical popularity mass of the corpus head.
func (p *Population) FileShare(topN int) float64 {
	if p.TotalSessions == 0 {
		return 0
	}
	hits := 0
	for _, c := range p.Clients {
		for _, s := range c.Sessions {
			if s.File < topN {
				hits++
			}
		}
	}
	return float64(hits) / float64(p.TotalSessions)
}

// ZipfShare is the analytic probability mass of the topN most popular files
// under the (s, v) Zipf distribution over files: the expected value of
// FileShare for a large population.
func ZipfShare(files, topN int, s, v float64) float64 {
	if files < 1 || topN < 1 {
		return 0
	}
	if topN > files {
		topN = files
	}
	var head, total float64
	for k := 0; k < files; k++ {
		w := math.Pow(v+float64(k), -s)
		total += w
		if k < topN {
			head += w
		}
	}
	return head / total
}
