package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"spechint/internal/fsim"
	"spechint/internal/trace"
)

// materialiseXDS is the reference model for the generated volume: the bytes
// XDSSpec.Build stored when a volume was a slice — allocate everything, stamp
// the header word and the first word of every data block.
func materialiseXDS(n int) []byte {
	size := DataOffset + int64(n)*int64(n)*rowStride(n)
	data := make([]byte, size)
	binary.LittleEndian.PutUint64(data[0:], uint64(n))
	for b := int64(DataOffset); b < size; b += 8192 {
		binary.LittleEndian.PutUint64(data[b:], uint64(b/8192*2654435761))
	}
	return data
}

// tableData is the reference model for an LSM table: the bytes LSMSpec.Build
// stored when a table was a slice — ascending keys every 512 bytes.
func tableData(rng *rand.Rand, size int) []byte {
	data := make([]byte, size)
	key := int64(rng.Intn(1 << 20))
	for off := 0; off+8 <= size; off += 512 {
		key += int64(1 + rng.Intn(64))
		binary.LittleEndian.PutUint64(data[off:], uint64(key))
	}
	return data
}

// shardData is the reference model for an MLShard shard: the bytes
// MLShardSpec.Build stored when a shard was a slice.
func shardData(rng *rand.Rand, size, shard int) []byte {
	data := make([]byte, size)
	salt := uint64(rng.Int63())
	for off := 0; off+8 <= size; off += 512 {
		binary.LittleEndian.PutUint64(data[off:], salt^uint64(shard)<<40^uint64(off)*2654435761)
	}
	return data
}

// populateData is the reference model for a file trace.PopulateFS creates:
// the loop it ran when it stored its files, with FNV-1a from the standard
// library for its path hash. Unlike a table or a shard, the last word is cut
// at size rather than left out.
func populateData(path string, size int64) []byte {
	hh := fnv.New64a()
	hh.Write([]byte(path))
	h := hh.Sum64()
	data := make([]byte, size)
	for off := int64(0); off < size; off += 512 {
		v := h ^ uint64(off)*0x9e3779b97f4a7c15
		for i := 0; i < 8 && off+int64(i) < size; i++ {
			data[off+int64(i)] = byte(v >> (8 * i))
		}
	}
	return data
}

// contentCase is one file under test and the bytes its model says it holds.
type contentCase struct {
	name   string
	file   *fsim.File
	oracle []byte
}

// recordCases builds files LSM tables, files MLShard shards and one file
// trace.PopulateFS creates, with size bytes each, and pairs every file with
// its model. The models draw from their own generator seeded like the spec's,
// in the order Build draws.
func recordCases(files, size int, seed int64) []contentCase {
	var cases []contentCase
	fs := fsim.New(8192)
	LSMSpec{L0Tables: files, L1Tables: 0, TableSize: size, ChunkSize: 4096, Seed: seed}.Build(fs)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < files; i++ {
		f, _ := fs.Lookup(fmt.Sprintf("lsm/L0/t%02d.sst", i))
		cases = append(cases, contentCase{fmt.Sprintf("lsm/%d", i), f, tableData(rng, size)})
	}

	MLShardSpec{Shards: files, ShardSize: size, ReadSize: 4096, Epochs: 1, Seed: seed}.Build(fs)
	rng = rand.New(rand.NewSource(seed))
	for i := 0; i < files; i++ {
		f, _ := fs.Lookup(fmt.Sprintf("ml/shard%03d.bin", i))
		cases = append(cases, contentCase{fmt.Sprintf("mlshard/%d", i), f, shardData(rng, size, i)})
	}

	var c trace.Capture
	path := fmt.Sprintf("replay/seed%d.dat", seed)
	c.Read(path, 0, int64(size), 0)
	if err := trace.PopulateFS(fs, c.Trace()); err != nil {
		panic(err)
	}
	f, _ := fs.Lookup(path)
	return append(cases, contentCase{"populate", f, populateData(path, int64(size))})
}

// readRange reads [off, off+n) of f through ReadAt into buf, first filled with
// 0xAA so that a content function that leaves stale bytes is caught.
func readRange(f *fsim.File, buf []byte, off, n int64) []byte {
	dst := buf[:n]
	for i := range dst {
		dst[i] = 0xAA
	}
	f.ReadAt(dst, off)
	return dst
}

// TestFileContentMatchesModel reads every content kind through ReadAt and
// compares with the materialised bytes: each block-aligned read, then fuzzed
// unaligned ranges aimed at the places a closed form goes wrong — the header
// word, block boundaries, a record word cut in two (off mod 512 in 1…7), sizes
// that are not a multiple of 512 and the end of the file.
func TestFileContentMatchesModel(t *testing.T) {
	const blk = 8192
	var cases []contentCase
	for _, n := range []int{8, 32, 64} {
		fs := fsim.New(blk)
		name, _ := XDSSpec{N: n, NumSlices: 1, Seed: 3}.Build(fs)
		f, _ := fs.Lookup(name)
		cases = append(cases, contentCase{fmt.Sprintf("generated/N=%d", n), f, materialiseXDS(n)})
	}
	stored := sourceText(rand.New(rand.NewSource(1)), 5*blk+123)
	cases = append(cases, contentCase{"stored", fsim.New(blk).MustCreate("stored", stored), bytes.Clone(stored)})
	// Three sizes for the record files: the last word fits with 3 bytes to
	// spare, is cut one byte short (a table or shard leaves it out, PopulateFS
	// keeps 7 bytes), and would start exactly at the end.
	for _, size := range []int{5*blk + 523, 5*blk + 7, 3 * blk} {
		for _, c := range recordCases(2, size, int64(size)) {
			c.name = fmt.Sprintf("%s/size=%d", c.name, size)
			cases = append(cases, c)
		}
	}

	for _, k := range cases {
		t.Run(k.name, func(t *testing.T) {
			size := int64(len(k.oracle))
			if k.file.Size() != size {
				t.Fatalf("Size = %d, model has %d bytes", k.file.Size(), size)
			}
			buf := make([]byte, size)
			check := func(off, n int64) {
				t.Helper()
				if got := readRange(k.file, buf, off, n); !bytes.Equal(got, k.oracle[off:off+n]) {
					t.Fatalf("ReadAt(%d, %d) differs from the model", off, n)
				}
			}
			for off := int64(0); off < size; off += blk {
				check(off, min(blk, size-off))
			}
			check(0, size)
			check(size, 0)

			rng := rand.New(rand.NewSource(size))
			edges := []int64{0, 8, blk, size}
			for i := 0; i < 4000; i++ {
				var off int64
				switch rng.Intn(4) {
				case 0: // a block or file edge, or just before one
					off = edges[rng.Intn(len(edges))] - int64(rng.Intn(20))
				case 1: // inside a record word
					off = rng.Int63n(size/512+1)*512 + 1 + int64(rng.Intn(7))
				case 2: // the tail
					off = size - int64(rng.Intn(600))
				default:
					off = rng.Int63n(size/blk+1)*blk - int64(rng.Intn(20))
				}
				off = min(max(off, 0), size)
				n := int64(rng.Intn(20))
				if rng.Intn(4) == 0 {
					n = int64(rng.Intn(3 * blk))
				}
				check(off, min(n, size-off))
			}
		})
	}
}

// FuzzFileContent: a generated LSM table, MLShard shard and PopulateFS file of
// any size read over any range equal their materialised models.
func FuzzFileContent(f *testing.F) {
	f.Add(int64(5*8192+517), int64(40961), int64(600), int64(1))
	f.Add(int64(8), int64(0), int64(8), int64(2))
	f.Add(int64(519), int64(513), int64(6), int64(3))
	f.Fuzz(func(t *testing.T, size, off, n, seed int64) {
		size = max(size, 0) % (64 << 10)
		off = max(off, 0) % (size + 1)
		n = max(n, 0) % (size - off + 1)
		buf := make([]byte, size)
		for _, c := range recordCases(1, int(size), seed) {
			if got := readRange(c.file, buf, off, n); !bytes.Equal(got, c.oracle[off:off+n]) {
				t.Fatalf("%s of %d bytes: ReadAt(%d, %d) differs from the model", c.name, size, off, n)
			}
		}
	})
}
