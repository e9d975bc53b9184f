// Package fsim provides the simulated file system the benchmarks run
// against: a flat namespace of immutable files laid out contiguously in a
// global logical-block space (the paper created a fresh file system for its
// experiments, so files are unfragmented), plus open-file descriptor tables.
//
// A file's content is shared, not owned: files are immutable, so a workload
// generated once can be copied onto any number of file systems (CopyTo), each
// laying the files out afresh under its own policy while every copy reads the
// same stored bytes or content function.
//
// fsim holds file *content*; timing lives in the disk and cache layers. The
// striping pseudodevice (internal/disk) maps fsim's logical block numbers to
// physical (disk, block) pairs.
//
// Descriptor tables are a first-class type because SpecHint's speculating
// thread maintains its own view of the process's descriptors: a speculative
// open must not be visible to normal execution, so the restart protocol
// clones the original thread's table and speculation mutates only the clone.
package fsim

import (
	"encoding/binary"
	"fmt"
)

// File is an immutable file: its content and its position in the logical
// block space. Content is either stored bytes (Create) or a pure function of
// the offset (CreateGenerated); readers cannot tell which — ReadAt is the one
// way in, so a large sparse file costs what is read of it, not its size.
type File struct {
	Name  string
	Start int64 // first logical block number
	ino   int64
	size  int64

	data []byte      // stored content; nil for a generated file
	fill ContentFunc // generated content; nil for a stored file

	blockSize int
}

// ContentFunc defines a generated file's content: it overwrites every byte
// of p with the file's bytes [off, off+len(p)). It must be a pure function of
// off — files are immutable and read from many goroutines at once.
type ContentFunc func(p []byte, off int64)

// Ino returns the file's inode number (stable, unique).
func (f *File) Ino() int64 { return f.ino }

// Size returns the file length in bytes.
func (f *File) Size() int64 { return f.size }

// ReadAt overwrites all of dst with the file's bytes [off, off+len(dst)); the
// caller keeps the range inside the file. Stored content is copied and
// generated content rendered straight into dst, so a read needs no staging
// buffer between the file and its destination.
func (f *File) ReadAt(dst []byte, off int64) {
	if off < 0 || off > f.size-int64(len(dst)) {
		panic(fmt.Sprintf("fsim: read [%d,+%d) of %q (size %d)", off, len(dst), f.Name, f.size))
	}
	if f.fill == nil {
		copy(dst, f.data[off:])
		return
	}
	f.fill(dst, off)
}

// Stamped is the content of a record file of the given size: zero but for a
// little-endian word(i) at every offset i*stride (stride >= 8). A word that
// would run past size is cut there when partial is set and left out
// otherwise; word is called only for the words a read covers.
func Stamped(size, stride int64, partial bool, word func(i int64) uint64) ContentFunc {
	return func(p []byte, off int64) {
		clear(p)
		end := off + int64(len(p))
		for i := off / stride; i*stride < end; i++ {
			pos := i * stride
			if !partial && pos+8 > size {
				return
			}
			if pos >= off && pos+8 <= end {
				binary.LittleEndian.PutUint64(p[pos-off:], word(i))
				continue
			}
			// The word is cut by the read: copy the part inside [off, end).
			if lo, hi := max(pos, off), min(pos+8, end); lo < hi {
				var w [8]byte
				binary.LittleEndian.PutUint64(w[:], word(i))
				copy(p[lo-off:hi-off], w[lo-pos:hi-pos])
			}
		}
	}
}

// NBlocks returns the number of file-system blocks the file occupies.
func (f *File) NBlocks() int64 {
	return (f.Size() + int64(f.blockSize) - 1) / int64(f.blockSize)
}

// LogicalBlock returns the global logical block number of the file's i'th
// block. It panics if i is out of range; callers validate offsets first.
func (f *File) LogicalBlock(i int64) int64 {
	if i < 0 || i >= f.NBlocks() {
		panic(fmt.Sprintf("fsim: block %d of %q (has %d)", i, f.Name, f.NBlocks()))
	}
	return f.Start + i
}

// FS is the file system: a namespace plus the logical block allocator. It is
// built single-threaded; once sealed nothing in it changes again, so any
// number of goroutines may run against it.
type FS struct {
	blockSize   int
	sealed      bool
	byName      map[string]*File
	byIno       map[int64]*File
	nextBlock   int64
	nextIno     int64
	alignBlocks int64
	gapBlocks   int64
	gapJitter   int64
}

// firstIno is the first inode number: numbering traditionally starts past the
// root.
const firstIno = 2

// New returns an empty file system with the given block size.
func New(blockSize int) *FS {
	if blockSize <= 0 {
		panic(fmt.Sprintf("fsim: block size %d", blockSize))
	}
	return &FS{
		blockSize:   blockSize,
		byName:      make(map[string]*File),
		byIno:       make(map[int64]*File),
		nextIno:     firstIno,
		alignBlocks: 1,
	}
}

// SetLayout controls how files are placed in the logical block space: each
// file starts gap blocks past the previous one, rounded up to an align-block
// boundary. The default (align 1, gap 0) packs files contiguously; benchmark
// file sets use a stripe-unit gap so that starting a new file costs a disk
// positioning, as it does on a real file system where files and their
// metadata are scattered.
func (fs *FS) SetLayout(alignBlocks, gapBlocks int64) {
	fs.mustBeOpen()
	if alignBlocks < 1 || gapBlocks < 0 {
		panic(fmt.Sprintf("fsim: bad layout align=%d gap=%d", alignBlocks, gapBlocks))
	}
	fs.alignBlocks = alignBlocks
	fs.gapBlocks = gapBlocks
}

// SetGapJitter adds a deterministic per-file extra gap of up to maxExtra
// blocks, so that file starts land on varying stripe units (and therefore
// rotate across the disks of an array) the way an aged allocator scatters
// them.
func (fs *FS) SetGapJitter(maxExtra int64) {
	fs.mustBeOpen()
	if maxExtra < 0 {
		panic(fmt.Sprintf("fsim: negative gap jitter %d", maxExtra))
	}
	fs.gapJitter = maxExtra
}

// BlockSize returns the file-system block size in bytes.
func (fs *FS) BlockSize() int { return fs.blockSize }

// Seal ends construction: every later Create fails. A sealed file system is
// immutable all the way down, which is what lets one built workload be
// shared by concurrently running simulations.
func (fs *FS) Seal() { fs.sealed = true }

// mustBeOpen guards the layout setters, whose callers hold a file system
// they just made; reaching them on a sealed one is a bug, not an input.
func (fs *FS) mustBeOpen() {
	if fs.sealed {
		panic("fsim: layout change on a sealed file system")
	}
}

// Create adds a file with the given content, allocating contiguous logical
// blocks. Creating an existing name is an error: benchmark file sets are
// immutable. The file keeps data; the caller must not modify it afterwards.
func (fs *FS) Create(name string, data []byte) (*File, error) {
	return fs.create(&File{Name: name, size: int64(len(data)), data: data})
}

// CreateGenerated adds a file of the given size whose content is computed by
// fill on every read instead of being stored.
func (fs *FS) CreateGenerated(name string, size int64, fill ContentFunc) (*File, error) {
	if size < 0 || fill == nil {
		return nil, fmt.Errorf("fsim: generated file %q needs a size >= 0 and a content function", name)
	}
	return fs.create(&File{Name: name, size: size, fill: fill})
}

// create places f (name, size and content set) in the block space.
func (fs *FS) create(f *File) (*File, error) {
	name := f.Name
	if fs.sealed {
		return nil, fmt.Errorf("fsim: create %q: file system is sealed", name)
	}
	if name == "" {
		return nil, fmt.Errorf("fsim: empty file name")
	}
	if _, ok := fs.byName[name]; ok {
		return nil, fmt.Errorf("fsim: %q already exists", name)
	}
	start := fs.nextBlock
	if len(fs.byName) > 0 {
		start += fs.gapBlocks
		if fs.gapJitter > 0 {
			start += (fs.nextIno * 7) % (fs.gapJitter + 1)
		}
	}
	start = (start + fs.alignBlocks - 1) / fs.alignBlocks * fs.alignBlocks
	f.Start, f.ino, f.blockSize = start, fs.nextIno, fs.blockSize
	fs.nextBlock = start
	fs.nextIno++
	fs.nextBlock += f.NBlocks()
	if f.NBlocks() == 0 {
		fs.nextBlock++ // even empty files consume a block slot, keeps Start unique
	}
	fs.byName[name] = f
	fs.byIno[f.ino] = f
	return f, nil
}

// CopyTo creates every file of fs on dst, in the order fs created them,
// sharing each file's stored bytes or content function: files are immutable,
// so one generated file set can back any number of file systems. dst's own
// layout places the copies, exactly as if the generator had created them
// there.
func (fs *FS) CopyTo(dst *FS) error {
	for ino := int64(firstIno); ino < fs.nextIno; ino++ {
		f := fs.byIno[ino]
		if _, err := dst.create(&File{Name: f.Name, size: f.size, data: f.data, fill: f.fill}); err != nil {
			return err
		}
	}
	return nil
}

// MustCreate is Create for test and generator code with known-good names.
func (fs *FS) MustCreate(name string, data []byte) *File {
	f, err := fs.Create(name, data)
	if err != nil {
		panic(err)
	}
	return f
}

// Lookup finds a file by name.
func (fs *FS) Lookup(name string) (*File, bool) {
	f, ok := fs.byName[name]
	return f, ok
}

// LookupBytes is Lookup for a name held in a byte slice, such as a path read
// out of VM memory; it does not copy the name.
func (fs *FS) LookupBytes(name []byte) (*File, bool) {
	f, ok := fs.byName[string(name)]
	return f, ok
}

// TotalBlocks returns the number of logical blocks allocated so far.
func (fs *FS) TotalBlocks() int64 { return fs.nextBlock }

// Errno is a tiny errno-style error code for VM syscall returns.
type Errno int64

const (
	OK      Errno = 0
	ENOENT  Errno = -2
	EIO     Errno = -5
	EBADF   Errno = -9
	EINVAL  Errno = -22
	EMFILE  Errno = -24
	ESPIPE  Errno = -29
	ENOSYS  Errno = -38
	EACCESS Errno = -13
)

func (e Errno) Error() string {
	switch e {
	case ENOENT:
		return "no such file or directory"
	case EIO:
		return "input/output error"
	case EBADF:
		return "bad file descriptor"
	case EINVAL:
		return "invalid argument"
	case EMFILE:
		return "too many open files"
	case ESPIPE:
		return "illegal seek"
	case ENOSYS:
		return "function not implemented"
	case EACCESS:
		return "permission denied"
	}
	return fmt.Sprintf("errno %d", int64(e))
}

// openFile is one descriptor-table entry.
type openFile struct {
	file   *File
	offset int64
}

// MaxFDs bounds a descriptor table, matching a typical per-process limit.
const MaxFDs = 256

// FDTable maps small integer descriptors to open files. Descriptors are
// allocated lowest-free-first, like a real kernel, so a speculating thread
// that clones the table and follows the same code path allocates the same
// numbers as normal execution will — a requirement for speculation to stay
// on track across open calls.
type FDTable struct {
	entries map[int64]*openFile
}

// NewFDTable returns an empty descriptor table.
func NewFDTable() *FDTable {
	return &FDTable{entries: make(map[int64]*openFile)}
}

// Clone returns a deep copy of the table (offsets are copied, files shared).
func (t *FDTable) Clone() *FDTable {
	c := NewFDTable()
	for fd, of := range t.entries {
		c.entries[fd] = &openFile{file: of.file, offset: of.offset}
	}
	return c
}

// Open opens name read-only and returns the new descriptor, or an Errno < 0.
func (t *FDTable) Open(fs *FS, name []byte) int64 {
	f, ok := fs.LookupBytes(name)
	if !ok {
		return int64(ENOENT)
	}
	// Lowest free descriptor, starting at 3 (0-2 are std streams).
	for fd := int64(3); fd < MaxFDs; fd++ {
		if _, used := t.entries[fd]; !used {
			t.entries[fd] = &openFile{file: f}
			return fd
		}
	}
	return int64(EMFILE)
}

// Close releases a descriptor.
func (t *FDTable) Close(fd int64) Errno {
	if _, ok := t.entries[fd]; !ok {
		return EBADF
	}
	delete(t.entries, fd)
	return OK
}

// File returns the file and current offset for fd.
func (t *FDTable) File(fd int64) (*File, int64, Errno) {
	of, ok := t.entries[fd]
	if !ok {
		return nil, 0, EBADF
	}
	return of.file, of.offset, OK
}

// SeekFD sets the file offset. whence follows the Unix convention:
// 0 = set, 1 = cur, 2 = end. Returns the new offset or an Errno < 0.
func (t *FDTable) SeekFD(fd, offset, whence int64) int64 {
	of, ok := t.entries[fd]
	if !ok {
		return int64(EBADF)
	}
	var base int64
	switch whence {
	case 0:
		base = 0
	case 1:
		base = of.offset
	case 2:
		base = of.file.Size()
	default:
		return int64(EINVAL)
	}
	n := base + offset
	if n < 0 {
		return int64(EINVAL)
	}
	of.offset = n
	return n
}

// Advance moves the offset after a successful read of n bytes.
func (t *FDTable) Advance(fd, n int64) {
	if of, ok := t.entries[fd]; ok {
		of.offset += n
	}
}
