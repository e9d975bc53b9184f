// Package cow implements software-enforced copy-on-write, the mechanism
// SpecHint uses to keep speculative stores from disturbing normal execution
// (paper §3.2.1, inspired by software fault isolation).
//
// Memory is divided into fixed-size regions (the paper explored 128 B–8 KB
// and settled on 1024 B). The first speculative store to a region copies it;
// subsequent speculative loads and stores to that region are redirected to
// the copy, so speculation sees its own writes while the underlying memory —
// shared with the original thread — stays untouched.
package cow

import (
	"encoding/binary"
	"fmt"
)

// Map tracks which memory regions have been copied and where the copies are.
type Map struct {
	regionSize int64
	mask       int64
	regions    map[int64][]byte // region base address -> private copy

	copies      int64 // regions ever copied (cumulative across Resets)
	bytesCopied int64
	peakRegions int // most regions live at once (footprint accounting)
}

// New returns a Map with the given region size, which must be a power of two
// and at least 8 (so an aligned word never spans three regions).
func New(regionSize int) *Map {
	rs := int64(regionSize)
	if rs < 8 || rs&(rs-1) != 0 {
		panic(fmt.Sprintf("cow: region size %d must be a power of two >= 8", regionSize))
	}
	return &Map{
		regionSize: rs,
		mask:       ^(rs - 1),
		regions:    make(map[int64][]byte),
	}
}

// RegionSize returns the configured region size in bytes.
func (m *Map) RegionSize() int { return int(m.regionSize) }

// Regions returns the number of currently copied regions.
func (m *Map) Regions() int { return len(m.regions) }

// PeakRegions returns the most regions ever live at once — the copy-on-write
// contribution to the process's memory footprint.
func (m *Map) PeakRegions() int { return m.peakRegions }

// Reset discards all copies; the restart protocol calls this when a new
// speculation begins.
func (m *Map) Reset() {
	clear(m.regions)
}

// ensure returns the copy covering addr, creating it from mem if needed,
// and reports whether a fresh copy was made.
func (m *Map) ensure(mem []byte, addr int64) ([]byte, bool) {
	base := addr & m.mask
	if c, ok := m.regions[base]; ok {
		return c, false
	}
	c := make([]byte, m.regionSize)
	end := base + m.regionSize
	if base < int64(len(mem)) {
		if end > int64(len(mem)) {
			end = int64(len(mem))
		}
		copy(c, mem[base:end])
	}
	m.regions[base] = c
	m.copies++
	m.bytesCopied += m.regionSize
	if len(m.regions) > m.peakRegions {
		m.peakRegions = len(m.regions)
	}
	return c, true
}

// LoadByte reads one byte at addr, from the copy if the region is copied.
func (m *Map) LoadByte(mem []byte, addr int64) byte {
	if c, ok := m.regions[addr&m.mask]; ok {
		return c[addr&^m.mask]
	}
	return mem[addr]
}

// StoreByte writes one byte at addr into the copy, creating it if needed.
// It reports whether a fresh region copy was made (the caller charges the
// copy cost in cycles).
func (m *Map) StoreByte(mem []byte, addr int64, v byte) bool {
	c, copied := m.ensure(mem, addr)
	c[addr&^m.mask] = v
	return copied
}

// Writable returns the copy of memory from addr to the end of addr's region,
// creating the region's copy from mem if needed. A span written through it
// region by region costs one lookup and at most one copy per region, with the
// same copies and accounting as a StoreByte per byte.
func (m *Map) Writable(mem []byte, addr int64) []byte {
	c, _ := m.ensure(mem, addr)
	return c[addr&^m.mask:]
}

// Readable is Writable's read side: memory from addr to the end of addr's
// region (or of mem, if that comes first) as the copies show it — the region's
// copy if it has one, mem itself if not. It never copies, so a span read
// through it region by region costs one lookup per region instead of one per
// load.
func (m *Map) Readable(mem []byte, addr int64) []byte {
	base := addr & m.mask
	end := min(base+m.regionSize, int64(len(mem)))
	if c, ok := m.regions[base]; ok {
		return c[addr-base : end-base]
	}
	return mem[addr:end]
}

// StoreBytes writes p at addr into copies, creating them as needed.
func (m *Map) StoreBytes(mem []byte, addr int64, p []byte) {
	for len(p) > 0 {
		n := copy(m.Writable(mem, addr), p)
		addr, p = addr+int64(n), p[n:]
	}
}

// LoadWord reads a 64-bit little-endian word at addr, honoring copies. The
// word may span two regions.
func (m *Map) LoadWord(mem []byte, addr int64) int64 {
	base := addr & m.mask
	if addr+8 <= base+m.regionSize {
		if c, ok := m.regions[base]; ok {
			return int64(binary.LittleEndian.Uint64(c[addr&^m.mask:]))
		}
		return int64(binary.LittleEndian.Uint64(mem[addr:]))
	}
	// Spans two regions: assemble byte by byte.
	var v uint64
	for i := int64(0); i < 8; i++ {
		v |= uint64(m.LoadByte(mem, addr+i)) << (8 * i)
	}
	return int64(v)
}

// StoreWord writes a 64-bit little-endian word at addr into copies, creating
// them as needed. It returns the number of fresh region copies made (0-2).
func (m *Map) StoreWord(mem []byte, addr int64, v int64) int {
	base := addr & m.mask
	if addr+8 <= base+m.regionSize {
		c, copied := m.ensure(mem, addr)
		binary.LittleEndian.PutUint64(c[addr&^m.mask:], uint64(v))
		if copied {
			return 1
		}
		return 0
	}
	n := 0
	for i := int64(0); i < 8; i++ {
		if m.StoreByte(mem, addr+i, byte(uint64(v)>>(8*i))) {
			n++
		}
	}
	return n
}
