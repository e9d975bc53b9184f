package workload

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"spechint/internal/fsim"
)

// whole reads a file end to end through ReadAt.
func whole(f *fsim.File) []byte {
	p := make([]byte, f.Size())
	f.ReadAt(p, 0)
	return p
}

// word reads the little-endian word at off through ReadAt.
func word(f *fsim.File, off int64) int64 {
	var p [8]byte
	f.ReadAt(p[:], off)
	return int64(binary.LittleEndian.Uint64(p[:]))
}

func TestAgrepBuildDeterministic(t *testing.T) {
	spec := AgrepSpec{NumFiles: 20, MeanSize: 3000, Pattern: "NEEDLE", Plants: 2, Seed: 7}
	fs1 := fsim.New(8192)
	names1 := spec.Build(fs1)
	fs2 := fsim.New(8192)
	names2 := spec.Build(fs2)
	if len(names1) != 20 || len(names2) != 20 {
		t.Fatalf("file counts: %d, %d", len(names1), len(names2))
	}
	for i := range names1 {
		if names1[i] != names2[i] {
			t.Fatal("names differ across builds")
		}
		f1, _ := fs1.Lookup(names1[i])
		f2, _ := fs2.Lookup(names2[i])
		if !bytes.Equal(whole(f1), whole(f2)) {
			t.Fatal("content differs across builds")
		}
	}
}

func TestAgrepPlantsPattern(t *testing.T) {
	spec := AgrepSpec{NumFiles: 30, MeanSize: 4000, Pattern: "XYZZY", Plants: 3, Seed: 5}
	fs := fsim.New(8192)
	names := spec.Build(fs)
	got := CountPattern(fs, names, spec.Pattern)
	if got < 1 || got > 3 {
		t.Fatalf("planted pattern count = %d, want 1..3", got)
	}
	if CountPattern(fs, names, "NOSUCHPATTERN") != 0 {
		t.Fatal("found a pattern that was never planted")
	}
}

func TestGnuldObjectFormat(t *testing.T) {
	spec := GnuldSpec{NumFiles: 5, NumSections: 3, SectionSize: 2000, SymtabSize: 512, StrtabSize: 256, Seed: 9}
	fs := fsim.New(8192)
	names := spec.Build(fs)
	if len(names) != 5 {
		t.Fatalf("files = %d", len(names))
	}
	for _, name := range names {
		f, ok := fs.Lookup(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		w := func(off int64) int64 { return word(f, off) }
		if w(HdrMagic) != ObjMagic {
			t.Fatalf("%s: bad magic", name)
		}
		if w(HdrNSections) != 3 {
			t.Fatalf("%s: nsections = %d", name, w(HdrNSections))
		}
		symHdr := w(HdrSymHdrOff)
		sectTab := w(HdrSectTabOff)
		if symHdr <= 0 || symHdr+SymHdrSize > f.Size() {
			t.Fatalf("%s: symhdr out of range", name)
		}
		// Section table entries must be in-range, non-overlapping-ish.
		for i := int64(0); i < 3; i++ {
			off := w(sectTab + i*SectEntrySize)
			l := w(sectTab + i*SectEntrySize + 8)
			if off < HdrSize || l <= 0 || off+l > f.Size() {
				t.Fatalf("%s: section %d [%d,+%d) out of range", name, i, off, l)
			}
		}
		symTab := w(symHdr + SymSymtabOff)
		symLen := w(symHdr + SymSymtabLen)
		if symLen != 512 || symTab+symLen > f.Size() {
			t.Fatalf("%s: symtab bad", name)
		}
		nDebug := w(symHdr + SymNDebug)
		if nDebug < 0 || nDebug > MaxDebug {
			t.Fatalf("%s: ndebug = %d", name, nDebug)
		}
		for d := int64(0); d < nDebug; d++ {
			doff := w(symTab + d*8)
			if doff < HdrSize || doff+DebugChunk > f.Size() {
				t.Fatalf("%s: debug %d at %d out of range", name, d, doff)
			}
		}
	}
}

func TestXDSBuildHeaderAndSize(t *testing.T) {
	spec := XDSSpec{N: 32, NumSlices: 4, Seed: 3}
	fs := fsim.New(8192)
	name, slices := spec.Build(fs)
	f, ok := fs.Lookup(name)
	if !ok {
		t.Fatal("volume missing")
	}
	if got := word(f, 0); got != 32 {
		t.Fatalf("header n = %d", got)
	}
	want := int64(DataOffset) + 32*32*rowStride(32)
	if f.Size() != want {
		t.Fatalf("size = %d, want %d", f.Size(), want)
	}
	if len(slices) != 4 {
		t.Fatalf("slices = %d", len(slices))
	}
	for _, s := range slices {
		if s.Index < 0 || s.Index >= 32 || s.Axis < 0 || s.Axis > 1 {
			t.Fatalf("bad slice %+v", s)
		}
	}
}

func TestSliceBlocksInRange(t *testing.T) {
	n := 32
	size := int64(DataOffset) + int64(n)*int64(n)*rowStride(n)
	maxBlock := (size - 1) / 8192
	for axis := 0; axis <= 1; axis++ {
		for _, idx := range []int{0, 1, n / 2, n - 1} {
			blocks := SliceBlocks(n, Slice{Axis: axis, Index: idx})
			if len(blocks) == 0 {
				t.Fatalf("axis %d idx %d: no blocks", axis, idx)
			}
			for _, b := range blocks {
				if b < 1 || b > maxBlock {
					t.Fatalf("axis %d idx %d: block %d out of [1,%d]", axis, idx, b, maxBlock)
				}
			}
			// Consecutive dedup means no immediate repeats.
			for i := 1; i < len(blocks); i++ {
				if blocks[i] == blocks[i-1] {
					t.Fatalf("axis %d: consecutive duplicate block", axis)
				}
			}
		}
	}
}

func TestSliceBlocksXPlaneDenserThanYPlane(t *testing.T) {
	// An x-plane is contiguous: far fewer distinct blocks than a y-plane.
	n := 64
	x := SliceBlocks(n, Slice{Axis: 0, Index: 10})
	y := SliceBlocks(n, Slice{Axis: 1, Index: 10})
	if len(x) >= len(y) {
		t.Fatalf("x-plane blocks %d >= y-plane blocks %d", len(x), len(y))
	}
}

// Property: SliceBlocks is deterministic and every index yields blocks
// within the volume.
func TestPropertySliceBlocks(t *testing.T) {
	f := func(axis bool, idx uint8) bool {
		n := 64
		a := 0
		if axis {
			a = 1
		}
		sl := Slice{Axis: a, Index: int(idx) % n}
		b1 := SliceBlocks(n, sl)
		b2 := SliceBlocks(n, sl)
		if len(b1) != len(b2) {
			return false
		}
		for i := range b1 {
			if b1[i] != b2[i] {
				return false
			}
		}
		return len(b1) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetBenchLayoutSpreadsFiles(t *testing.T) {
	fs := fsim.New(8192)
	SetBenchLayout(fs)
	var starts []int64
	for i := 0; i < 10; i++ {
		f := fs.MustCreate(string(rune('a'+i)), make([]byte, 100))
		starts = append(starts, f.Start)
	}
	// Starts must be stripe-unit aligned and strictly increasing with gaps.
	for i, s := range starts {
		if s%StripeUnitBlocks != 0 {
			t.Fatalf("start %d not stripe aligned", s)
		}
		if i > 0 && s-starts[i-1] < StripeUnitBlocks {
			t.Fatalf("gap too small: %d after %d", s, starts[i-1])
		}
	}
	// Jitter must produce varying gaps (not all identical).
	gap0 := starts[1] - starts[0]
	varied := false
	for i := 2; i < len(starts); i++ {
		if starts[i]-starts[i-1] != gap0 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("gap jitter produced uniform gaps")
	}
}
