package workload

// The modern app suite (ROADMAP item 4): workloads the 1999 paper never
// saw, expressed as traces over the replay frontend. Each spec builds its
// file set in the simulated file system and emits the access trace that
// internal/trace compiles into a first-class VM application — so the new
// apps pick up all four modes, the chaos harness, and the bench registry
// exactly like the hand-written benchmarks.

import (
	"fmt"
	"math/rand"

	"spechint/internal/fsim"
	"spechint/internal/trace"
)

// ------------------------------------------------------------------ LSM --

// LSMSpec configures the LSM/KV workload: a leveled compaction merging L0
// and L1 sorted tables chunk by chunk, interleaved with point lookups (an
// index-block read locating a data-block read). The compaction stream is
// sequential *per table* but round-robins across all tables, and the
// lookups jump randomly — a mix where per-file readahead helps only the
// merge and speculation can hint everything.
type LSMSpec struct {
	L0Tables  int
	L1Tables  int
	TableSize int // bytes per sorted table
	ChunkSize int // compaction read granularity
	Lookups   int // point lookups interleaved with the merge
	Seed      int64
	Prefix    string // path prefix, so several trees can share one FS
}

// LSMIndexSize is the index block at the tail of each table a point lookup
// reads first to locate its data block.
const LSMIndexSize = 4096

// lsmThinkMerge is the compute per compaction chunk (key comparisons and
// output assembly), and lsmThinkLookup the compute between a lookup's index
// and data reads (binary search in the index block).
const (
	lsmThinkMerge  = 60_000
	lsmThinkLookup = 25_000
)

// DefaultLSM merges 8 tables of 4 MB — a 32 MB compaction against the
// 12 MB cache — with 96 lookups mixed in.
func DefaultLSM() LSMSpec {
	return LSMSpec{L0Tables: 4, L1Tables: 4, TableSize: 4 << 20, ChunkSize: 64 << 10, Lookups: 96, Seed: 5}
}

// Build creates the table files and returns the compaction+lookup trace.
func (s LSMSpec) Build(fs *fsim.FS) *trace.Trace {
	rng := rand.New(rand.NewSource(s.Seed))
	var tables []string
	mk := func(level string, n int) {
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("%slsm/%s/t%02d.sst", s.Prefix, level, i)
			mustGenerate(fs, name, int64(s.TableSize), tableContent(rng, s.TableSize))
			tables = append(tables, name)
		}
	}
	mk("L0", s.L0Tables)
	mk("L1", s.L1Tables)

	rec := &trace.Capture{}
	chunks := s.TableSize / s.ChunkSize
	if chunks < 1 {
		chunks = 1
	}
	totalMerge := chunks * len(tables)
	lookupEvery := totalMerge
	if s.Lookups > 0 {
		lookupEvery = totalMerge / s.Lookups
		if lookupEvery < 1 {
			lookupEvery = 1
		}
	}
	merged := 0
	for c := 0; c < chunks; c++ {
		off := int64(c) * int64(s.ChunkSize)
		n := int64(s.ChunkSize)
		if off+n > int64(s.TableSize) {
			n = int64(s.TableSize) - off
		}
		for _, t := range tables {
			rec.Read(t, off, n, lsmThinkMerge)
			merged++
			if s.Lookups > 0 && merged%lookupEvery == 0 {
				// Point lookup: index block at the table's tail, then the
				// data block it names.
				lt := tables[rng.Intn(len(tables))]
				idxOff := int64(s.TableSize) - LSMIndexSize
				if idxOff < 0 {
					idxOff = 0
				}
				rec.Read(lt, idxOff, LSMIndexSize, lsmThinkLookup)
				dataOff := int64(rng.Intn(chunks)) * int64(s.ChunkSize)
				rec.Read(lt, dataOff, int64(s.ChunkSize), lsmThinkLookup)
			}
		}
	}
	return rec.Trace()
}

// recordBytes is the record size of the LSM tables and MLShard shards: each
// record starts with a 64-bit word and is zero after it, and a record whose
// word does not fit before the end of the file is left out.
const recordBytes = 512

// tableContent draws a sorted table, ascending 64-bit keys one per record,
// so replay checksums depend on exactly which chunks were read. Only the keys
// are kept (8 bytes per 512-byte record); the table is rendered from them on
// every read.
func tableContent(rng *rand.Rand, size int) fsim.ContentFunc {
	keys := make([]uint64, 0, (size+recordBytes-8)/recordBytes)
	key := int64(rng.Intn(1 << 20))
	for off := 0; off+8 <= size; off += recordBytes {
		key += int64(1 + rng.Intn(64))
		keys = append(keys, uint64(key))
	}
	return fsim.Stamped(int64(size), recordBytes, false, func(r int64) uint64 { return keys[r] })
}

// -------------------------------------------------------------- MLShard --

// MLShardSpec configures the ML-training shard loader (the GPU readahead
// prefetcher paper's access pattern): per epoch, every shard file is read
// once in a shuffled order, and *within* each shard the batch-sized reads
// are shuffled too. Coarse, massively non-sequential, yet completely
// deterministic given the shuffle seed — the pattern where sequential
// readahead loses everything and speculation recovers it all.
type MLShardSpec struct {
	Shards    int
	ShardSize int // bytes per shard file
	ReadSize  int // bytes per batch read
	Epochs    int
	Seed      int64
	Prefix    string // path prefix, so several datasets can share one FS
}

// mlThinkBatch is the compute per batch read (augmentation + host-to-device
// staging; small relative to a cold read, which is what makes the loader
// I/O-bound).
const mlThinkBatch = 80_000

// DefaultMLShard loads 16 shards of 4 MB (64 MB, far beyond the 12 MB
// cache) in 16 KB batch reads for 2 epochs. The batch size matters: a
// hinted read bypasses sequential readahead, so multi-hundred-KB batches
// would hide the shuffle from the readahead heuristic and hints could only
// lose; at a few blocks per batch the shuffled offsets defeat readahead and
// disclosure recovers the full overlap.
func DefaultMLShard() MLShardSpec {
	return MLShardSpec{Shards: 16, ShardSize: 4 << 20, ReadSize: 16 << 10, Epochs: 2, Seed: 6}
}

// Build creates the shard files and returns the epoch-shuffled read trace.
func (s MLShardSpec) Build(fs *fsim.FS) *trace.Trace {
	rng := rand.New(rand.NewSource(s.Seed))
	names := make([]string, s.Shards)
	for i := range names {
		names[i] = fmt.Sprintf("%sml/shard%03d.bin", s.Prefix, i)
		mustGenerate(fs, names[i], int64(s.ShardSize), shardContent(rng, s.ShardSize, i))
	}
	rec := &trace.Capture{}
	reads := s.ShardSize / s.ReadSize
	if reads < 1 {
		reads = 1
	}
	for e := 0; e < s.Epochs; e++ {
		for _, si := range rng.Perm(s.Shards) {
			for _, ri := range rng.Perm(reads) {
				off := int64(ri) * int64(s.ReadSize)
				n := int64(s.ReadSize)
				if off+n > int64(s.ShardSize) {
					n = int64(s.ShardSize) - off
				}
				rec.Read(names[si], off, n, mlThinkBatch)
			}
		}
	}
	return rec.Trace()
}

// shardContent marks each record with a shard- and offset-dependent value,
// so the replay digest pins exactly which batches were read. The one draw
// from rng is the shard's salt.
func shardContent(rng *rand.Rand, size, shard int) fsim.ContentFunc {
	salt := uint64(rng.Int63()) ^ uint64(shard)<<40
	return fsim.Stamped(int64(size), recordBytes, false, func(r int64) uint64 {
		return salt ^ uint64(r*recordBytes)*2654435761
	})
}
