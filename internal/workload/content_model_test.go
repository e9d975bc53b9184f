package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"spechint/internal/fsim"
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

// TestFileContentMatchesModel reads every content kind through the one
// accessor and compares with the materialised bytes: each block-aligned read,
// then fuzzed unaligned ranges aimed at the places a closed form goes wrong —
// the header word, block boundaries (a stamped word cut in two) and the end
// of the file. One scratch buffer is reused throughout, so a read that leaves
// stale bytes from the previous one fails too.
func TestFileContentMatchesModel(t *testing.T) {
	const blk = 8192
	type kind struct {
		name   string
		file   *fsim.File
		oracle []byte
	}
	var kinds []kind
	for _, n := range []int{8, 32, 64} {
		fs := fsim.New(blk)
		name, _ := XDSSpec{N: n, NumSlices: 1, Seed: 3}.Build(fs)
		f, _ := fs.Lookup(name)
		kinds = append(kinds, kind{fmt.Sprintf("generated/N=%d", n), f, materialiseXDS(n)})
	}
	stored := sourceText(rand.New(rand.NewSource(1)), 5*blk+123)
	kinds = append(kinds, kind{"stored", fsim.New(blk).MustCreate("stored", stored), bytes.Clone(stored)})

	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			size := int64(len(k.oracle))
			if k.file.Size() != size {
				t.Fatalf("Size = %d, model has %d bytes", k.file.Size(), size)
			}
			var scratch []byte
			check := func(off, n int64) {
				t.Helper()
				if got := k.file.Bytes(off, n, &scratch); !bytes.Equal(got, k.oracle[off:off+n]) {
					t.Fatalf("Bytes(%d, %d) differs from the model", off, n)
				}
			}
			for off := int64(0); off < size; off += blk {
				check(off, min(blk, size-off))
			}
			check(0, size)
			check(size, 0)

			rng := rand.New(rand.NewSource(int64(size)))
			edges := []int64{0, 8, blk, size}
			for i := 0; i < 4000; i++ {
				edge := edges[rng.Intn(len(edges))]
				if rng.Intn(2) == 0 {
					edge = rng.Int63n(size/blk+1) * blk
				}
				off := min(max(edge-int64(rng.Intn(20)), 0), size)
				n := int64(rng.Intn(20))
				if rng.Intn(4) == 0 {
					n = int64(rng.Intn(3 * blk))
				}
				check(off, min(n, size-off))
			}
			if got := k.file.Bytes(3, 9, nil); !bytes.Equal(got, k.oracle[3:12]) {
				t.Fatal("Bytes with no scratch differs from the model")
			}
		})
	}
}
