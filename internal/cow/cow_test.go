package cow

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range []int{0, 4, 7, 100, 1023} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
	for _, good := range []int{8, 128, 1024, 8192} {
		if m := New(good); m.RegionSize() != good {
			t.Errorf("RegionSize = %d, want %d", m.RegionSize(), good)
		}
	}
}

func TestStoreRedirectsLoadsNotMemory(t *testing.T) {
	mem := make([]byte, 4096)
	mem[100] = 7
	m := New(128)
	if got := m.LoadByte(mem, 100); got != 7 {
		t.Fatalf("LoadByte before copy = %d, want 7", got)
	}
	copied := m.StoreByte(mem, 100, 42)
	if !copied {
		t.Fatal("first store did not copy the region")
	}
	if mem[100] != 7 {
		t.Fatal("speculative store mutated shared memory")
	}
	if got := m.LoadByte(mem, 100); got != 42 {
		t.Fatalf("LoadByte after store = %d, want 42", got)
	}
	// Neighbors in the same region read their pre-copy values.
	mem[101] = 9 // mutation AFTER copy is invisible to speculation
	if got := m.LoadByte(mem, 101); got != 0 {
		t.Fatalf("LoadByte(101) = %d, want snapshot value 0", got)
	}
	// Uncopied region still reads through.
	mem[3000] = 5
	if got := m.LoadByte(mem, 3000); got != 5 {
		t.Fatalf("LoadByte uncopied = %d, want 5", got)
	}
}

func TestSecondStoreSameRegionNoCopy(t *testing.T) {
	mem := make([]byte, 1024)
	m := New(128)
	m.StoreByte(mem, 10, 1)
	if m.StoreByte(mem, 20, 2) {
		t.Fatal("second store in same region copied again")
	}
	if m.Copies() != 1 || m.Regions() != 1 {
		t.Fatalf("copies=%d regions=%d, want 1,1", m.Copies(), m.Regions())
	}
	if m.BytesCopied() != 128 {
		t.Fatalf("BytesCopied = %d, want 128", m.BytesCopied())
	}
}

func TestWordRoundTrip(t *testing.T) {
	mem := make([]byte, 1024)
	m := New(64)
	if n := m.StoreWord(mem, 96, 0x1122334455667788); n != 1 {
		t.Fatalf("StoreWord copies = %d, want 1", n)
	}
	if got := m.LoadWord(mem, 96); got != 0x1122334455667788 {
		t.Fatalf("LoadWord = %x", got)
	}
	for i := 96; i < 104; i++ {
		if mem[i] != 0 {
			t.Fatal("StoreWord leaked into shared memory")
		}
	}
}

func TestWordSpanningRegions(t *testing.T) {
	mem := make([]byte, 1024)
	for i := range mem {
		mem[i] = byte(i)
	}
	m := New(64)
	// addr 60: bytes 60..67 span regions [0,64) and [64,128).
	n := m.StoreWord(mem, 60, -1)
	if n != 2 {
		t.Fatalf("spanning StoreWord copies = %d, want 2", n)
	}
	if got := m.LoadWord(mem, 60); got != -1 {
		t.Fatalf("spanning LoadWord = %x, want all ones", got)
	}
	// Reading a spanning word with only through-memory regions.
	m2 := New(64)
	want := int64(0)
	for i := 7; i >= 0; i-- {
		want = want<<8 | int64(mem[60+i])
	}
	_ = want
	got := m2.LoadWord(mem, 60)
	var expect uint64
	for i := 7; i >= 0; i-- {
		expect = expect<<8 | uint64(mem[60+i])
	}
	if uint64(got) != expect {
		t.Fatalf("uncopied spanning LoadWord = %x, want %x", got, expect)
	}
}

func TestCoveredAndReset(t *testing.T) {
	mem := make([]byte, 1024)
	m := New(128)
	m.StoreByte(mem, 10, 1)
	if !m.Covered(127) || m.Covered(128) {
		t.Fatal("Covered boundaries wrong")
	}
	m.Reset()
	if m.Regions() != 0 || m.Covered(10) {
		t.Fatal("Reset did not clear copies")
	}
	// Copies counter is cumulative across resets.
	if m.Copies() != 1 {
		t.Fatalf("Copies after reset = %d, want cumulative 1", m.Copies())
	}
	if got := m.LoadByte(mem, 10); got != 0 {
		t.Fatalf("LoadByte after reset = %d, want memory value 0", got)
	}
}

func TestRegionAtEndOfMemory(t *testing.T) {
	mem := make([]byte, 100) // not region aligned
	m := New(64)
	mem[99] = 3
	m.StoreByte(mem, 99, 8)
	if got := m.LoadByte(mem, 99); got != 8 {
		t.Fatalf("LoadByte = %d, want 8", got)
	}
	if mem[99] != 3 {
		t.Fatal("shared memory mutated")
	}
}

// Property: a sequence of speculative stores never changes shared memory,
// and speculative loads always see the most recent speculative store (or
// the snapshot value at copy time).
func TestPropertyIsolationAndVisibility(t *testing.T) {
	type op struct {
		Addr uint16
		Val  byte
	}
	f := func(ops []op) bool {
		mem := make([]byte, 1<<16)
		for i := range mem {
			mem[i] = byte(i * 31)
		}
		orig := make([]byte, len(mem))
		copy(orig, mem)

		m := New(256)
		written := map[int64]byte{}
		for _, o := range ops {
			addr := int64(o.Addr)
			m.StoreByte(mem, addr, o.Val)
			written[addr] = o.Val
		}
		for addr, want := range written {
			if m.LoadByte(mem, addr) != want {
				return false
			}
		}
		for i := range mem {
			if mem[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: LoadWord equals composing eight LoadBytes, at any alignment.
func TestPropertyWordByteConsistency(t *testing.T) {
	f := func(addrs []uint16, vals []int64) bool {
		mem := make([]byte, 1<<16+8)
		m := New(64)
		for i, a := range addrs {
			if i < len(vals) {
				m.StoreWord(mem, int64(a), vals[i])
			}
		}
		for _, a := range addrs {
			addr := int64(a)
			var fromBytes uint64
			for i := 7; i >= 0; i-- {
				fromBytes = fromBytes<<8 | uint64(m.LoadByte(mem, addr+int64(i)))
			}
			if uint64(m.LoadWord(mem, addr)) != fromBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// StoreBytes is the byte loop, region by region: the same copies made, the
// same view afterwards, the same counters — for writes that start and end
// anywhere in a region, cover several, end in the final partial region of a
// memory that is not region aligned, or are empty.
func TestStoreBytesMatchesByteLoop(t *testing.T) {
	const memSize, region = 1000, 64 // 15 regions and a 40-byte tail
	rng := rand.New(rand.NewSource(1))
	type write struct{ addr, n int64 }
	writes := []write{
		{0, 0}, {5, 1}, {60, 8}, {63, 1}, {64, 64}, {100, 200}, {0, memSize},
		{memSize - 1, 1}, {memSize - 40, 40}, {memSize - 41, 41}, {960, 0},
	}
	for i := 0; i < 200; i++ {
		addr := rng.Int63n(memSize)
		writes = append(writes, write{addr, rng.Int63n(memSize - addr + 1)})
	}
	mem := make([]byte, memSize)
	rng.Read(mem)
	orig := bytes.Clone(mem)
	for reset := 0; reset < 2; reset++ {
		bulk, loop := New(region), New(region)
		for i, w := range writes {
			if reset == 1 && i%7 == 0 {
				bulk.Reset()
				loop.Reset()
			}
			p := make([]byte, w.n)
			rng.Read(p)
			bulk.StoreBytes(mem, w.addr, p)
			for j, b := range p {
				loop.StoreByte(mem, w.addr+int64(j), b)
			}
			if bulk.Copies() != loop.Copies() || bulk.BytesCopied() != loop.BytesCopied() ||
				bulk.PeakRegions() != loop.PeakRegions() || bulk.Regions() != loop.Regions() {
				t.Fatalf("write %d %+v: counters (%d %d %d %d), byte loop (%d %d %d %d)", i, w,
					bulk.Copies(), bulk.BytesCopied(), bulk.PeakRegions(), bulk.Regions(),
					loop.Copies(), loop.BytesCopied(), loop.PeakRegions(), loop.Regions())
			}
			for a := int64(0); a < memSize; a++ {
				if bulk.Covered(a) != loop.Covered(a) || bulk.LoadByte(mem, a) != loop.LoadByte(mem, a) {
					t.Fatalf("write %d %+v: views differ at %d", i, w, a)
				}
			}
			if w.n > 0 && bulk.LoadByte(mem, w.addr+w.n-1) != p[w.n-1] {
				t.Fatalf("write %d %+v: the last byte written does not read back", i, w)
			}
		}
	}
	if !bytes.Equal(mem, orig) {
		t.Fatal("a speculative store reached shared memory")
	}
}

// Readable is the view LoadByte gives, a region at a time: from any address
// to its region's end (or memory's, for the final partial region), through
// copied and uncopied regions alike, and it never makes a copy.
func TestReadableMatchesLoadByte(t *testing.T) {
	const memSize, region = 1000, 64
	mem := make([]byte, memSize)
	rand.New(rand.NewSource(2)).Read(mem)
	m := New(region)
	for _, a := range []int64{3, 130, 131, memSize - 5} {
		m.StoreByte(mem, a, ^mem[a])
	}
	copies := m.Copies()
	for addr := int64(0); addr < memSize; addr++ {
		b := m.Readable(mem, addr)
		if want := min(addr|(region-1)+1, memSize) - addr; int64(len(b)) != want {
			t.Fatalf("Readable(%d) has %d bytes, want %d", addr, len(b), want)
		}
		for i, v := range b {
			if v != m.LoadByte(mem, addr+int64(i)) {
				t.Fatalf("Readable(%d)[%d] = %d, LoadByte says %d", addr, i, v, m.LoadByte(mem, addr+int64(i)))
			}
		}
	}
	if m.Copies() != copies {
		t.Fatalf("Readable made %d copies", m.Copies()-copies)
	}
}

// Copies returns the number of region copies made since the last Reset.
func (m *Map) Copies() int64 { return m.copies }

// BytesCopied returns the number of bytes copied since the last Reset.
func (m *Map) BytesCopied() int64 { return m.bytesCopied }

// Covered reports whether addr lies in a copied region.
func (m *Map) Covered(addr int64) bool {
	_, ok := m.regions[addr&m.mask]
	return ok
}
