// Package clients generates deterministic synthetic client populations for
// the sharded TIP service (internal/cluster): N lightweight clients, each a
// Poisson process of sessions with exponential think times between reads and
// Zipf-skewed file popularity — the thousands-of-independent-consumers
// regime the GPU-readahead literature documents as readahead-hostile, in
// place of the hand-built benchmark processes.
//
// Determinism contract: Generate is a pure function of its Config. Every
// client draws from its own splitmix-seeded rand source, so the schedule is
// byte-identical for a given seed regardless of the generation fan-out width
// (internal/par assembles in index order) and of how many other clients the
// population holds.
package clients

import (
	"fmt"
	"math/rand"

	"spechint/internal/par"
)

// Config sizes and seeds a population. All times are virtual CPU cycles.
type Config struct {
	N        int // clients
	Sessions int // sessions per client

	// Corpus shape: Files files of FileBlocks blocks of BlockSize bytes.
	// Every session picks one file by Zipf popularity and reads it
	// sequentially from the start.
	Files      int
	FileBlocks int64
	BlockSize  int64

	// SessionBlocks is how many blocks one session reads (clamped to the
	// file size); ReadBlocks is the request size, so a session issues
	// ceil(SessionBlocks/ReadBlocks) read ops.
	SessionBlocks int64
	ReadBlocks    int64

	// ArrivalMean is the mean inter-arrival time between a client's session
	// arrivals (exponential — each client is a Poisson process); ThinkMean
	// is the mean think time between a read completing and the next being
	// issued. 1/ArrivalMean per client is the offered session rate.
	ArrivalMean int64
	ThinkMean   int64

	// Zipf popularity skew: file k is drawn with probability proportional
	// to 1/(ZipfV+k)^ZipfS. ZipfS must be > 1, ZipfV >= 1 (math/rand).
	ZipfS float64
	ZipfV float64

	Seed int64
}

// validate reports a configuration error, if any.
func (c Config) validate() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("clients: N = %d, want >= 1", c.N)
	case c.Sessions < 1:
		return fmt.Errorf("clients: Sessions = %d, want >= 1", c.Sessions)
	case c.Files < 1:
		return fmt.Errorf("clients: Files = %d, want >= 1", c.Files)
	case c.FileBlocks < 1 || c.BlockSize < 1:
		return fmt.Errorf("clients: FileBlocks = %d, BlockSize = %d, want >= 1", c.FileBlocks, c.BlockSize)
	case c.SessionBlocks < 1 || c.ReadBlocks < 1:
		return fmt.Errorf("clients: SessionBlocks = %d, ReadBlocks = %d, want >= 1", c.SessionBlocks, c.ReadBlocks)
	case c.ArrivalMean < 1 || c.ThinkMean < 0:
		return fmt.Errorf("clients: ArrivalMean = %d (want >= 1), ThinkMean = %d (want >= 0)", c.ArrivalMean, c.ThinkMean)
	case c.ZipfS <= 1 || c.ZipfV < 1:
		return fmt.Errorf("clients: ZipfS = %g (want > 1), ZipfV = %g (want >= 1)", c.ZipfS, c.ZipfV)
	}
	return nil
}

// ReadOp is one read request in a session: [Off, Off+N) bytes of the
// session's file, followed by Think cycles of client think time before the
// next op.
type ReadOp struct {
	Off   int64
	N     int64
	Think int64
}

// Session is one arrival: at absolute virtual time At the client opens file
// File and performs Reads in order. If the client's previous session is
// still running at At, the session queues behind it (open arrivals).
type Session struct {
	At    int64
	File  int
	Reads []ReadOp
}

// Client is one generated client schedule.
type Client struct {
	ID       int
	Sessions []Session
}

// Population is a generated client population plus precomputed totals.
type Population struct {
	Cfg     Config
	Clients []Client

	TotalSessions int
	TotalReads    int64
	TotalBlocks   int64
}

// Generate builds the population for cfg, fanning client generation out over
// the worker pool. The result is deterministic in cfg alone.
func Generate(cfg Config) (*Population, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cls, err := par.MapErr(par.Workers(0), cfg.N, func(i int) (Client, error) {
		return genClient(cfg, i), nil
	})
	if err != nil {
		return nil, err
	}
	p := &Population{Cfg: cfg, Clients: cls}
	for _, c := range cls {
		p.TotalSessions += len(c.Sessions)
		for _, s := range c.Sessions {
			p.TotalReads += int64(len(s.Reads))
			for _, r := range s.Reads {
				first := r.Off / cfg.BlockSize
				last := (r.Off + r.N - 1) / cfg.BlockSize
				p.TotalBlocks += last - first + 1
			}
		}
	}
	return p, nil
}

// genClient generates client id's schedule from its own seeded source.
func genClient(cfg Config, id int) Client {
	rng := rand.New(rand.NewSource(int64(splitmix64(uint64(cfg.Seed) + uint64(id)*0x9E3779B97F4A7C15))))
	zipf := rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(cfg.Files-1))

	nb := cfg.SessionBlocks
	if nb > cfg.FileBlocks {
		nb = cfg.FileBlocks
	}
	at := int64(0)
	sessions := make([]Session, cfg.Sessions)
	for s := range sessions {
		at += expCycles(rng, cfg.ArrivalMean)
		sess := Session{At: at, File: int(zipf.Uint64())}
		for b := int64(0); b < nb; b += cfg.ReadBlocks {
			n := cfg.ReadBlocks
			if b+n > nb {
				n = nb - b
			}
			sess.Reads = append(sess.Reads, ReadOp{
				Off:   b * cfg.BlockSize,
				N:     n * cfg.BlockSize,
				Think: expCycles(rng, cfg.ThinkMean),
			})
		}
		sessions[s] = sess
	}
	return Client{ID: id, Sessions: sessions}
}

// expCycles draws an exponential interval with the given mean, in cycles,
// clamped so a pathological tail draw cannot overflow virtual time.
func expCycles(rng *rand.Rand, mean int64) int64 {
	if mean <= 0 {
		return 0
	}
	v := rng.ExpFloat64() * float64(mean)
	if v > 1e15 {
		v = 1e15
	}
	return int64(v)
}

// splitmix64 is the SplitMix64 finalizer: a well-mixed 64-bit hash used to
// derive independent per-client seeds from (Seed, id).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
