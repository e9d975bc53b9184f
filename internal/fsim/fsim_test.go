package fsim

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestCreateAndLookup(t *testing.T) {
	fs := New(8192)
	data := []byte("hello world")
	f, err := fs.Create("a.txt", data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", f.Size(), len(data))
	}
	got, ok := fs.Lookup("a.txt")
	if !ok || got != f {
		t.Fatal("Lookup failed to find created file")
	}
	if _, ok := fs.Lookup("missing"); ok {
		t.Fatal("Lookup found missing file")
	}
	content := make([]byte, got.Size())
	got.ReadAt(content, 0)
	if !bytes.Equal(content, data) {
		t.Fatal("content mismatch")
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	fs := New(8192)
	fs.MustCreate("x", nil)
	if _, err := fs.Create("x", nil); err == nil {
		t.Fatal("duplicate Create succeeded")
	}
	if _, err := fs.Create("", nil); err == nil {
		t.Fatal("empty-name Create succeeded")
	}
}

// TestGeneratedFile: a generated file is laid out by its size like a stored
// one, and a read renders exactly the requested range into the caller's
// buffer, all of it and nothing outside it.
func TestGeneratedFile(t *testing.T) {
	fs := New(100)
	ramp := func(p []byte, off int64) {
		for i := range p {
			p[i] = byte(off + int64(i))
		}
	}
	g, err := fs.CreateGenerated("gen", 250, ramp)
	if err != nil {
		t.Fatal(err)
	}
	next := fs.MustCreate("next", make([]byte, 1))
	if g.Size() != 250 || g.NBlocks() != 3 || next.Start != 3 {
		t.Fatalf("size %d nblocks %d, next file at %d; want 250, 3, 3", g.Size(), g.NBlocks(), next.Start)
	}
	buf := bytes.Repeat([]byte{0xAA}, 42)
	if g.ReadAt(buf[1:41], 10); buf[0] != 0xAA || buf[1] != 10 || buf[40] != 49 || buf[41] != 0xAA {
		t.Fatalf("ReadAt(10, 40) = %v", buf)
	}
	whole := make([]byte, 250)
	if g.ReadAt(whole, 0); whole[249] != 249 {
		t.Fatal("whole-file read failed")
	}
	if _, err := fs.CreateGenerated("nofill", 10, nil); err == nil {
		t.Fatal("CreateGenerated accepted a nil content function")
	}
	for _, f := range []*File{g, next} {
		for _, r := range []struct{ off, n int64 }{{f.Size(), 1}, {-1, 1}, {math.MaxInt64, 2}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: read [%d,+%d) past the file did not panic", f.Name, r.off, r.n)
					}
				}()
				f.ReadAt(make([]byte, r.n), r.off)
			}()
		}
	}
}

// TestStamped: a record word lands at every stride, cut at the file's end or
// left out, and a read that splits a word gets exactly its part.
func TestStamped(t *testing.T) {
	word := func(i int64) uint64 { return 0x0807060504030201 + uint64(i)<<56 }
	for _, partial := range []bool{false, true} {
		fill := Stamped(21, 10, partial, word)
		got := bytes.Repeat([]byte{0xAA}, 21)
		fill(got, 0)
		want := []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 1, 2, 3, 4, 5, 6, 7, 9, 0, 0, 0}
		if partial {
			want[20] = 1 // the third word, cut after its first byte
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("partial=%v: %v, want %v", partial, got, want)
		}
		for off := int64(0); off <= 21; off++ {
			for n := int64(0); off+n <= 21; n++ {
				p := bytes.Repeat([]byte{0xAA}, int(n))
				if fill(p, off); !bytes.Equal(p, want[off:off+n]) {
					t.Fatalf("partial=%v: [%d,+%d) = %v, want %v", partial, off, n, p, want[off:off+n])
				}
			}
		}
	}
}

// TestSealedRejectsCreate: sealing ends construction for both content kinds
// and leaves every lookup working.
func TestSealedRejectsCreate(t *testing.T) {
	fs := New(100)
	f := fs.MustCreate("f", []byte("x"))
	fs.Seal()
	if _, err := fs.Create("late", nil); err == nil {
		t.Fatal("Create succeeded on a sealed file system")
	}
	if _, err := fs.CreateGenerated("late", 1, func([]byte, int64) {}); err == nil {
		t.Fatal("CreateGenerated succeeded on a sealed file system")
	}
	if got, ok := fs.Lookup("f"); !ok || got != f || fs.TotalBlocks() != 1 {
		t.Fatal("sealing disturbed the existing files")
	}
}

func TestBlockAllocationContiguous(t *testing.T) {
	fs := New(100)
	a := fs.MustCreate("a", make([]byte, 250)) // 3 blocks
	b := fs.MustCreate("b", make([]byte, 100)) // 1 block
	c := fs.MustCreate("c", make([]byte, 1))   // 1 block
	if a.Start != 0 || a.NBlocks() != 3 {
		t.Fatalf("a: start %d nblocks %d", a.Start, a.NBlocks())
	}
	if b.Start != 3 || b.NBlocks() != 1 {
		t.Fatalf("b: start %d nblocks %d", b.Start, b.NBlocks())
	}
	if c.Start != 4 {
		t.Fatalf("c: start %d", c.Start)
	}
	if fs.TotalBlocks() != 5 {
		t.Fatalf("TotalBlocks = %d, want 5", fs.TotalBlocks())
	}
}

func TestEmptyFileStillConsumesSlot(t *testing.T) {
	fs := New(100)
	e := fs.MustCreate("empty", nil)
	f := fs.MustCreate("next", make([]byte, 1))
	if e.Start == f.Start {
		t.Fatal("empty file shares Start with next file")
	}
}

func TestLogicalBlock(t *testing.T) {
	fs := New(100)
	fs.MustCreate("pad", make([]byte, 550)) // 6 blocks
	f := fs.MustCreate("f", make([]byte, 250))
	if lb := f.LogicalBlock(0); lb != 6 {
		t.Fatalf("LogicalBlock(0) = %d, want 6", lb)
	}
	if lb := f.LogicalBlock(2); lb != 8 {
		t.Fatalf("LogicalBlock(2) = %d, want 8", lb)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range LogicalBlock did not panic")
		}
	}()
	f.LogicalBlock(3)
}

func TestInoUniqueAndResolvable(t *testing.T) {
	fs := New(100)
	a := fs.MustCreate("a", nil)
	b := fs.MustCreate("b", nil)
	if a.Ino() == b.Ino() {
		t.Fatal("duplicate inode numbers")
	}
	got, ok := fs.ByIno(b.Ino())
	if !ok || got != b {
		t.Fatal("ByIno failed")
	}
}

func TestNamesSorted(t *testing.T) {
	fs := New(100)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		fs.MustCreate(n, nil)
	}
	names := fs.Names()
	if len(names) != 3 || names[0] != "alpha" || names[1] != "mid" || names[2] != "zeta" {
		t.Fatalf("Names = %v", names)
	}
}

func TestFDTableOpenCloseLowestFree(t *testing.T) {
	fs := New(100)
	fs.MustCreate("f", make([]byte, 10))
	tb := NewFDTable()
	fd1 := tb.Open(fs, []byte("f"))
	fd2 := tb.Open(fs, []byte("f"))
	if fd1 != 3 || fd2 != 4 {
		t.Fatalf("fds = %d,%d want 3,4", fd1, fd2)
	}
	if e := tb.Close(fd1); e != OK {
		t.Fatalf("Close: %v", e)
	}
	fd3 := tb.Open(fs, []byte("f"))
	if fd3 != 3 {
		t.Fatalf("reopened fd = %d, want lowest-free 3", fd3)
	}
	if fd := tb.Open(fs, []byte("missing")); Errno(fd) != ENOENT {
		t.Fatalf("open missing = %d, want ENOENT", fd)
	}
	if e := tb.Close(99); e != EBADF {
		t.Fatalf("close bad fd = %v, want EBADF", e)
	}
}

func TestFDTableExhaustion(t *testing.T) {
	fs := New(100)
	fs.MustCreate("f", nil)
	tb := NewFDTable()
	for i := 3; i < MaxFDs; i++ {
		if fd := tb.Open(fs, []byte("f")); fd < 0 {
			t.Fatalf("open %d failed early: %d", i, fd)
		}
	}
	if fd := tb.Open(fs, []byte("f")); Errno(fd) != EMFILE {
		t.Fatalf("over-limit open = %d, want EMFILE", fd)
	}
}

func TestSeekWhence(t *testing.T) {
	fs := New(100)
	fs.MustCreate("f", make([]byte, 100))
	tb := NewFDTable()
	fd := tb.Open(fs, []byte("f"))
	if n := tb.SeekFD(fd, 10, 0); n != 10 {
		t.Fatalf("SEEK_SET = %d", n)
	}
	if n := tb.SeekFD(fd, 5, 1); n != 15 {
		t.Fatalf("SEEK_CUR = %d", n)
	}
	if n := tb.SeekFD(fd, -20, 2); n != 80 {
		t.Fatalf("SEEK_END = %d", n)
	}
	if n := tb.SeekFD(fd, -200, 1); Errno(n) != EINVAL {
		t.Fatalf("negative seek = %d, want EINVAL", n)
	}
	if n := tb.SeekFD(fd, 0, 7); Errno(n) != EINVAL {
		t.Fatalf("bad whence = %d, want EINVAL", n)
	}
	if n := tb.SeekFD(99, 0, 0); Errno(n) != EBADF {
		t.Fatalf("seek bad fd = %d, want EBADF", n)
	}
}

func TestAdvanceAndFile(t *testing.T) {
	fs := New(100)
	fs.MustCreate("f", make([]byte, 100))
	tb := NewFDTable()
	fd := tb.Open(fs, []byte("f"))
	tb.Advance(fd, 30)
	_, off, e := tb.File(fd)
	if e != OK || off != 30 {
		t.Fatalf("offset = %d (%v), want 30", off, e)
	}
	if _, _, e := tb.File(42); e != EBADF {
		t.Fatalf("File(42) errno = %v, want EBADF", e)
	}
	tb.Advance(42, 10) // no-op, must not panic
}

func TestCloneIsolation(t *testing.T) {
	fs := New(100)
	fs.MustCreate("f", make([]byte, 100))
	orig := NewFDTable()
	fd := orig.Open(fs, []byte("f"))
	orig.Advance(fd, 10)

	clone := orig.Clone()
	clone.Advance(fd, 50)
	cfd := clone.Open(fs, []byte("f")) // new fd only in clone

	_, off, _ := orig.File(fd)
	if off != 10 {
		t.Fatalf("original offset mutated: %d", off)
	}
	if _, _, e := orig.File(cfd); e != EBADF {
		t.Fatal("clone's open leaked into original")
	}
	_, coff, _ := clone.File(fd)
	if coff != 60 {
		t.Fatalf("clone offset = %d, want 60", coff)
	}
}

func TestErrnoStrings(t *testing.T) {
	for _, e := range []Errno{ENOENT, EBADF, EINVAL, EMFILE, ESPIPE, ENOSYS, EACCESS, Errno(-99)} {
		if e.Error() == "" {
			t.Fatalf("empty error string for %d", e)
		}
	}
}

// Property: files never overlap in logical block space.
func TestPropertyNoBlockOverlap(t *testing.T) {
	f := func(sizes []uint16) bool {
		fs := New(512)
		type span struct{ start, end int64 }
		var spans []span
		for i, s := range sizes {
			file := fs.MustCreate(fmt.Sprintf("f%d", i), make([]byte, int(s)))
			end := file.Start + file.NBlocks()
			if end == file.Start {
				end++
			}
			spans = append(spans, span{file.Start, end})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.start < b.end && b.start < a.end {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: descriptor numbers in a table are always unique and >= 3.
func TestPropertyFDUniqueness(t *testing.T) {
	f := func(ops []bool) bool {
		fs := New(512)
		fs.MustCreate("f", make([]byte, 10))
		tb := NewFDTable()
		var open []int64
		for _, doOpen := range ops {
			if doOpen || len(open) == 0 {
				fd := tb.Open(fs, []byte("f"))
				if fd < 3 {
					return false
				}
				for _, o := range open {
					if o == fd {
						return false
					}
				}
				open = append(open, fd)
			} else {
				fd := open[len(open)-1]
				open = open[:len(open)-1]
				if tb.Close(fd) != OK {
					return false
				}
			}
		}
		return tb.Len() == len(open)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ByIno finds a file by inode number.
func (fs *FS) ByIno(ino int64) (*File, bool) {
	f, ok := fs.byIno[ino]
	return f, ok
}

// Names returns all file names in sorted order (deterministic iteration).
func (fs *FS) Names() []string {
	names := make([]string, 0, len(fs.byName))
	for n := range fs.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of open descriptors.
func (t *FDTable) Len() int { return len(t.entries) }
