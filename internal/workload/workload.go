// Package workload generates the benchmark data sets. Each generator is a
// scaled-down, deterministic equivalent of a TIP-benchmark input:
//
//   - Agrep searched 1,349 Digital UNIX kernel source files (2,928 blocks,
//     ~18 MB). We generate a tree of source-like text files with the same
//     small-file size profile at a configurable scale.
//   - Gnuld linked 562 object files. We generate object files in a compact
//     format with the same *dependence structure*: a file header pointing at
//     a symbol header, which points at symbol/string tables, which contain
//     the locations of up to nine small debug chunks; plus a section table
//     and per-section data. Every level must be read before the next can be
//     located — the pointer chasing that limits speculative hinting.
//   - XDataSlice viewed 25 random slices through a 512^3 volume (512 MB).
//     We generate an n^3 volume with a block-aligned header; slice block
//     addresses are computable from the header alone, which is why
//     speculation hints nearly all of its reads.
//
// All content is deterministic in the seed; file sizes and layouts are what
// drive the simulation, so "content" is sparse where values do not matter.
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"spechint/internal/fsim"
)

// StripeUnitBlocks is the file-layout alignment/gap used by all benchmark
// file sets: each file starts on a fresh stripe unit with a gap, so opening
// a new file costs a disk positioning (as on a real, aged file system).
const StripeUnitBlocks = 8

// SetBenchLayout applies the benchmark file layout policy to fs: stripe-unit
// alignment, at least a stripe unit of gap, and jittered extra gaps so file
// starts rotate across the array's disks.
func SetBenchLayout(fs *fsim.FS) {
	fs.SetLayout(StripeUnitBlocks, StripeUnitBlocks)
	fs.SetGapJitter(8 * StripeUnitBlocks)
}

// ---------------------------------------------------------------- Agrep --

// AgrepSpec configures the text-search corpus.
type AgrepSpec struct {
	NumFiles int
	MeanSize int    // mean file size in bytes (sizes vary around it)
	Pattern  string // needle; planted Plants times across the corpus
	Plants   int
	Seed     int64
	Prefix   string // path prefix, so several corpora can share one FS
}

// DefaultAgrep is the paper's Agrep workload at ~1:7 scale: many small
// source files read whole and sequentially.
func DefaultAgrep() AgrepSpec {
	return AgrepSpec{NumFiles: 200, MeanSize: 13000, Pattern: "ENOTREACHED", Plants: 3, Seed: 1}
}

// Build creates the corpus in fs and returns the file names in search order.
func (s AgrepSpec) Build(fs *fsim.FS) []string {
	rng := rand.New(rand.NewSource(s.Seed))
	names := make([]string, 0, s.NumFiles)
	plantIn := map[int]bool{}
	for len(plantIn) < s.Plants && len(plantIn) < s.NumFiles {
		plantIn[rng.Intn(s.NumFiles)] = true
	}
	for i := 0; i < s.NumFiles; i++ {
		// Size profile: most files small, a few large (like source trees).
		size := s.MeanSize/4 + rng.Intn(s.MeanSize*3/2)
		if rng.Intn(10) == 0 {
			size *= 3
		}
		data := sourceText(rng, size)
		if plantIn[i] && len(data) > len(s.Pattern)+2 {
			copy(data[rng.Intn(len(data)-len(s.Pattern)-1)+1:], s.Pattern)
		}
		name := fmt.Sprintf("%skernel/src/%03d/file%04d.c", s.Prefix, i/50, i)
		fs.MustCreate(name, data)
		names = append(names, name)
	}
	return names
}

// sourceText produces C-ish filler.
func sourceText(rng *rand.Rand, size int) []byte {
	words := []string{
		"static", "int", "struct", "return", "if", "else", "for", "while",
		"void", "char", "unsigned", "register", "proc", "vnode", "ubc",
		"lock", "spl", "panic", "KASSERT", "error", "flags", "offset",
	}
	b := make([]byte, 0, size)
	for len(b) < size {
		w := words[rng.Intn(len(words))]
		b = append(b, w...)
		if rng.Intn(8) == 0 {
			b = append(b, '\n')
		} else {
			b = append(b, ' ')
		}
	}
	return b[:size]
}

// CountPattern returns the number of occurrences of pattern in the corpus,
// for verifying Agrep's exit code.
func CountPattern(fs *fsim.FS, names []string, pattern string) int {
	count := 0
	for _, n := range names {
		f, ok := fs.Lookup(n)
		if !ok {
			continue
		}
		data := make([]byte, f.Size())
		f.ReadAt(data, 0)
		for i := 0; i+len(pattern) <= len(data); i++ {
			if string(data[i:i+len(pattern)]) == pattern {
				count++
			}
		}
	}
	return count
}

// ---------------------------------------------------------------- Gnuld --

// Object-file format offsets (bytes). All fields are 64-bit little endian.
// The format is deliberately pointer-chained: header -> symbol header ->
// symbol table -> debug chunk locations.
const (
	ObjMagic = 0x4A424F46 // "FOBJ"

	HdrMagic      = 0  // magic number
	HdrSymHdrOff  = 8  // offset of the symbol header
	HdrNSections  = 16 // number of sections
	HdrSectTabOff = 24 // offset of the section table
	HdrSize       = 64

	SymSymtabOff = 0 // within the symbol header
	SymSymtabLen = 8
	SymStrtabOff = 16
	SymStrtabLen = 24
	SymNDebug    = 32 // number of debug chunks (0-9)
	SymHdrSize   = 64

	SectEntrySize = 16 // [offset, length] per section
	DebugChunk    = 64 // bytes per debug chunk read
	MaxDebug      = 9
)

// GnuldSpec configures the object-file set.
type GnuldSpec struct {
	NumFiles    int
	NumSections int // non-debugging sections per file
	SectionSize int // mean bytes per section
	SymtabSize  int // bytes (first NDebug words hold debug chunk offsets)
	StrtabSize  int
	Seed        int64
	Prefix      string // path prefix, so several object sets can share one FS
}

// DefaultGnuld is the paper's link of 562 objects at ~1:2.3 scale. Sizes are
// chosen so that (a) each metadata level lives in its own blocks, making the
// levels independently prefetchable, and (b) the full link (~21 MB) exceeds
// the 12 MB file cache, so the section pass must re-fetch data — both true
// of the paper's kernel link.
func DefaultGnuld() GnuldSpec {
	return GnuldSpec{
		NumFiles:    240,
		NumSections: 4,
		SectionSize: 16000,
		SymtabSize:  16384,
		StrtabSize:  8192,
		Seed:        2,
	}
}

// Build creates the object files and returns their names in link order.
func (s GnuldSpec) Build(fs *fsim.FS) []string {
	rng := rand.New(rand.NewSource(s.Seed))
	names := make([]string, 0, s.NumFiles)
	for i := 0; i < s.NumFiles; i++ {
		name := fmt.Sprintf("%sobj/unit%04d.o", s.Prefix, i)
		fs.MustCreate(name, s.object(rng))
		names = append(names, name)
	}
	return names
}

// object lays out one object file. Layout order: header, then sections with
// debug chunks scattered between them, then section table, symtab and
// strtab — so the metadata a linker chases lives *behind* the bulk data and
// the debug reads are genuinely non-sequential, as in real object files.
func (s GnuldSpec) object(rng *rand.Rand) []byte {
	type span struct{ off, len int64 }
	pos := int64(HdrSize)
	nDebug := rng.Intn(MaxDebug + 1)
	debug := make([]int64, 0, nDebug)
	sections := make([]span, s.NumSections)
	for i := range sections {
		l := int64(s.SectionSize/2 + rng.Intn(s.SectionSize))
		sections[i] = span{pos, l}
		pos += l
		if len(debug) < nDebug {
			debug = append(debug, pos)
			pos += DebugChunk
		}
	}
	sectTab := pos
	pos += int64(s.NumSections * SectEntrySize)
	symHdr := pos
	pos += SymHdrSize
	symTab := pos
	pos += int64(s.SymtabSize)
	strTab := pos
	pos += int64(s.StrtabSize)
	for len(debug) < nDebug {
		debug = append(debug, pos)
		pos += DebugChunk
	}

	data := make([]byte, pos)
	put := func(off int64, v int64) { binary.LittleEndian.PutUint64(data[off:], uint64(v)) }
	put(HdrMagic, ObjMagic)
	put(HdrSymHdrOff, symHdr)
	put(HdrNSections, int64(s.NumSections))
	put(HdrSectTabOff, sectTab)
	for i, sec := range sections {
		put(sectTab+int64(i*SectEntrySize), sec.off)
		put(sectTab+int64(i*SectEntrySize)+8, sec.len)
		fill(data[sec.off:sec.off+sec.len], rng)
	}
	put(symHdr+SymSymtabOff, symTab)
	put(symHdr+SymSymtabLen, int64(s.SymtabSize))
	put(symHdr+SymStrtabOff, strTab)
	put(symHdr+SymStrtabLen, int64(s.StrtabSize))
	put(symHdr+SymNDebug, int64(nDebug))
	for i, off := range debug {
		put(symTab+int64(i*8), off) // debug locations live in the symtab
		fill(data[off:off+DebugChunk], rng)
	}
	fill(data[symTab+int64(nDebug*8):symTab+int64(s.SymtabSize)], rng)
	fill(data[strTab:strTab+int64(s.StrtabSize)], rng)
	return data
}

func fill(b []byte, rng *rand.Rand) {
	// Sparse deterministic fill: cheap to generate, nonzero checksum.
	for i := 0; i < len(b); i += 37 {
		b[i] = byte(rng.Intn(256))
	}
}

// ----------------------------------------------------------- XDataSlice --

// Slice is one slice request through the volume.
type Slice struct {
	Axis  int // 0 = x-plane (contiguous), 1 = y-plane (strided)
	Index int
}

// XDSSpec configures the volume and the slice requests.
type XDSSpec struct {
	N         int // volume is N^3 32-bit elements
	NumSlices int
	Seed      int64
	Prefix    string // path prefix, so several volumes can share one FS
}

// DefaultXDS is the paper's exact XDataSlice geometry: 25 random slices
// through a 512^3 volume (512 MB on disk, vastly larger than the 12 MB file
// cache). The 512-point dimension matters: a strided plane's runs are 128
// blocks apart, beyond the 64-block sequential read-ahead, so the read-ahead
// policy wastes most of its prefetches exactly as in the paper's Table 5.
func DefaultXDS() XDSSpec {
	return XDSSpec{N: 512, NumSlices: 25, Seed: 3}
}

// DataOffset is where volume data starts (one block of header).
const DataOffset = 8192

// RowPad is the padding appended to each z-row of the volume (visualization
// formats align rows to cache-line multiples). It also keeps a plane's run
// stride from being an exact multiple of stripeUnit*disks — with zero pad a
// 512-point volume's strided planes land every read on a single disk. With
// 128 bytes of pad the stride is 17 stripe units, which rotates across any
// array of 1-10 disks.
const RowPad = 128

// rowStride returns the on-disk bytes per z-row for dimension n.
func rowStride(n int) int64 { return int64(n)*4 + RowPad }

// Build creates the volume file and returns its name plus slice requests.
// The volume is a generated file: a run reads a few slices of it, so its
// half gigabyte (at the paper's N) is never materialised.
func (s XDSSpec) Build(fs *fsim.FS) (string, []Slice) {
	rng := rand.New(rand.NewSource(s.Seed))
	size := DataOffset + int64(s.N)*int64(s.N)*rowStride(s.N)
	name := s.Prefix + "viz/dataset.vol"
	mustGenerate(fs, name, size, xdsContent(s.N, size))

	slices := make([]Slice, s.NumSlices)
	for i := range slices {
		axis := 0
		if rng.Intn(3) > 0 { // y-planes dominate, like the paper's randoms
			axis = 1
		}
		slices[i] = Slice{Axis: axis, Index: rng.Intn(s.N)}
	}
	return name, slices
}

// xdsContent is the volume's content in closed form: the header block starts
// with the word N, every later block starts with a block-dependent word (so
// checksums depend on exactly which blocks are processed), and all else is
// zero.
func xdsContent(n int, size int64) fsim.ContentFunc {
	return fsim.Stamped(size, DataOffset, true, func(b int64) uint64 {
		if b == 0 {
			return uint64(n)
		}
		return uint64(b * 2654435761)
	})
}

// mustGenerate creates a generated file; the names are the generator's own,
// so a failure is a bug.
func mustGenerate(fs *fsim.FS, name string, size int64, fill fsim.ContentFunc) {
	if _, err := fs.CreateGenerated(name, size, fill); err != nil {
		panic(err)
	}
}

// SliceBlocks returns the ordered list of distinct volume blocks (block
// numbers within the file) a slice touches — the read sequence XDataSlice
// issues. Exported for the manual-hint variant and for tests.
func SliceBlocks(n int, sl Slice) []int64 {
	stride := rowStride(n)
	elem := func(x int) int64 {
		// Byte offset of the x'th run (z-row) of the plane.
		if sl.Axis == 0 { // x = Index: the plane's rows are consecutive
			return (int64(sl.Index)*int64(n) + int64(x)) * stride
		}
		// y = Index: one row per x, strided by n rows
		return (int64(x)*int64(n) + int64(sl.Index)) * stride
	}
	var last int64 = -1
	var blocks []int64
	for x := 0; x < n; x++ {
		// The application reads the block containing the run's start
		// (consecutive duplicates deduped, like the app's register check).
		b := (DataOffset + elem(x)) / 8192
		if b != last {
			blocks = append(blocks, b)
			last = b
		}
	}
	return blocks
}

// ----------------------------------------------------------- Postgres --

// PostgresSpec configures the database-join workload from the paper's
// Table 1 (Patterson's Postgres benchmark): a sequential scan of an outer
// relation driving random fetches into an inner relation, with a selectivity
// parameter controlling what fraction of outer tuples join (the paper ran
// 20% and 80%).
type PostgresSpec struct {
	OuterTuples int
	InnerTuples int
	InnerSize   int // bytes per inner tuple
	Selectivity int // percent of outer tuples that match
	Seed        int64
	Prefix      string // path prefix, so several databases can share one FS
}

// OuterTupleSize is the fixed outer-relation tuple size: key, inner tid (or
// -1 for no match), and payload.
const OuterTupleSize = 64

// DefaultPostgres sizes the join so the inner relation far exceeds the
// 12 MB cache, as in the paper's run.
func DefaultPostgres(selectivity int) PostgresSpec {
	return PostgresSpec{
		OuterTuples: 50_000,
		InnerTuples: 100_000,
		InnerSize:   256,
		Selectivity: selectivity,
		Seed:        4,
	}
}

// Build creates the outer and inner relation files and returns their names.
// Each outer tuple stores the tid of its matching inner tuple (the index
// lookup's result), or -1: the paper's manually-hinted Postgres disclosed
// exactly these upcoming inner fetches.
func (s PostgresSpec) Build(fs *fsim.FS) (outer, inner string) {
	rng := rand.New(rand.NewSource(s.Seed))
	od := make([]byte, s.OuterTuples*OuterTupleSize)
	for i := 0; i < s.OuterTuples; i++ {
		base := i * OuterTupleSize
		binary.LittleEndian.PutUint64(od[base:], uint64(i)) // key
		tid := int64(-1)
		if rng.Intn(100) < s.Selectivity {
			tid = int64(rng.Intn(s.InnerTuples))
		}
		binary.LittleEndian.PutUint64(od[base+8:], uint64(tid))
		od[base+16] = byte(i) // payload marker
	}
	id := make([]byte, s.InnerTuples*s.InnerSize)
	for i := 0; i < s.InnerTuples; i += 1 {
		binary.LittleEndian.PutUint64(id[i*s.InnerSize:], uint64(i*2654435761))
	}
	outer, inner = s.Prefix+"db/outer.rel", s.Prefix+"db/inner.rel"
	fs.MustCreate(outer, od)
	fs.MustCreate(inner, id)
	return outer, inner
}
