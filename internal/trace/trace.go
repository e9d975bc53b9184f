// Package trace is the trace-replay frontend: it ingests strace/blktrace-
// shaped access traces from a simple line format, validates them, and
// compiles them into VM programs (see compile.go) so that *any* captured
// read stream runs as a first-class benchmark application in every mode —
// original, speculating, manual and static — with zero special cases in the
// runtime, the transform, or the analyses.
//
// The line format, one record per line (blank lines and lines starting with
// '#' are ignored):
//
//	open <path>          begin reading the named file
//	read <off> <len>     read len bytes at absolute offset off
//	think <cycles>       compute for that many CPU cycles
//	close                finish with the current file
//
// Offsets, lengths and cycles are decimal. Exactly one file is open at a
// time: interleaved multi-file access is expressed by closing and reopening
// (opens cost no I/O in the simulated file system — the disk access sequence
// is determined entirely by the reads — so this normalization loses
// nothing, and Capture applies it automatically when recording).
//
// Package trace deliberately imports only the file-system model: the core
// runtime imports it for capture (Config.Capture), so it must sit below
// core in the dependency order.
package trace

import (
	"fmt"
	"strconv"
	"strings"

	"spechint/internal/fsim"
)

// Validation limits. They bound the compiled program's data segment (each
// record costs 24 bytes plus its path string) so every accepted trace fits
// comfortably in the VM's default memory.
const (
	MaxRecords = 1 << 16 // records per trace
	MaxReadLen = 1 << 20 // bytes per read
	MaxOffset  = 1 << 40 // byte offset into one file
	MaxThink   = 1 << 40 // cycles per think record
	MaxPathLen = 255     // bytes per path
)

// Kind discriminates trace records.
type Kind int

const (
	KindOpen Kind = iota
	KindRead
	KindThink
	KindClose
)

func (k Kind) String() string {
	switch k {
	case KindOpen:
		return "open"
	case KindRead:
		return "read"
	case KindThink:
		return "think"
	case KindClose:
		return "close"
	}
	return "unknown"
}

// Rec is one trace record. Path is set for opens; Off and Len for reads;
// Cycles for thinks; a close carries nothing.
type Rec struct {
	Kind   Kind
	Path   string
	Off    int64
	Len    int64
	Cycles int64
}

// Trace is a validated record sequence: opens and closes strictly alternate,
// every read falls inside an open/close pair, and every field is within the
// package limits.
type Trace struct {
	Recs []Rec
}

// Reads returns just the read records, in order — the part of a trace that
// determines its disk access sequence (round-trip tests compare these).
func (t *Trace) Reads() []Rec {
	var rs []Rec
	cur := ""
	for _, r := range t.Recs {
		switch r.Kind {
		case KindOpen:
			cur = r.Path
		case KindRead:
			rr := r
			rr.Path = cur
			rs = append(rs, rr)
		}
	}
	return rs
}

// ParseError is a malformed-trace diagnostic. Line is 1-based and always
// set: tools that surface the error (specrun -trace-file) can point at the
// offending record.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("trace: line %d: %s", e.Line, e.Msg) }

func perr(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse reads the line format. Every error is a *ParseError carrying the
// 1-based line number of the offending record.
func Parse(src string) (*Trace, error) {
	tr := &Trace{}
	openAt := 0 // line of the currently-open file's open record (0 = none)
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		s := strings.TrimSpace(raw)
		if s == "" || s[0] == '#' {
			continue
		}
		f := strings.Fields(s)
		if len(tr.Recs) >= MaxRecords {
			return nil, perr(line, "too many records (limit %d)", MaxRecords)
		}
		switch f[0] {
		case "open":
			if len(f) != 2 {
				return nil, perr(line, "open wants 1 operand (a path), got %d", len(f)-1)
			}
			if openAt != 0 {
				return nil, perr(line, "open with a file already open (line %d); close it first", openAt)
			}
			if err := checkPath(f[1]); err != nil {
				return nil, perr(line, "%v", err)
			}
			tr.Recs = append(tr.Recs, Rec{Kind: KindOpen, Path: f[1]})
			openAt = line
		case "read":
			if len(f) != 3 {
				return nil, perr(line, "read wants 2 operands (offset, length), got %d", len(f)-1)
			}
			if openAt == 0 {
				return nil, perr(line, "read with no file open")
			}
			off, err := parseNum(f[1], 0, MaxOffset)
			if err != nil {
				return nil, perr(line, "read offset %v", err)
			}
			n, err := parseNum(f[2], 1, MaxReadLen)
			if err != nil {
				return nil, perr(line, "read length %v", err)
			}
			tr.Recs = append(tr.Recs, Rec{Kind: KindRead, Off: off, Len: n})
		case "think":
			if len(f) != 2 {
				return nil, perr(line, "think wants 1 operand (cycles), got %d", len(f)-1)
			}
			c, err := parseNum(f[1], 0, MaxThink)
			if err != nil {
				return nil, perr(line, "think cycles %v", err)
			}
			tr.Recs = append(tr.Recs, Rec{Kind: KindThink, Cycles: c})
		case "close":
			if len(f) != 1 {
				return nil, perr(line, "close takes no operands, got %d", len(f)-1)
			}
			if openAt == 0 {
				return nil, perr(line, "close with no file open")
			}
			tr.Recs = append(tr.Recs, Rec{Kind: KindClose})
			openAt = 0
		default:
			return nil, perr(line, "unknown record %q (want open, read, think or close)", f[0])
		}
	}
	if openAt != 0 {
		return nil, perr(openAt, "open was never closed")
	}
	return tr, nil
}

// parseNum parses a decimal int64 within [min, max].
func parseNum(s string, min, max int64) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is not a decimal number", s)
	}
	if v < min || v > max {
		return 0, fmt.Errorf("%d out of range [%d, %d]", v, min, max)
	}
	return v, nil
}

// checkPath validates a file path: nonempty, bounded, printable ASCII with
// no whitespace (the line format is whitespace-delimited).
func checkPath(p string) error {
	if p == "" {
		return fmt.Errorf("empty path")
	}
	if len(p) > MaxPathLen {
		return fmt.Errorf("path longer than %d bytes", MaxPathLen)
	}
	for i := 0; i < len(p); i++ {
		if p[i] <= ' ' || p[i] > '~' {
			return fmt.Errorf("path byte %d is not printable ASCII", i)
		}
	}
	return nil
}

// Format renders a trace back into the line format. Format∘Parse is the
// identity on canonical text, and Parse∘Format is the identity on every
// valid Trace — the capture path writes traces with it.
func Format(t *Trace) string {
	var b strings.Builder
	for _, r := range t.Recs {
		switch r.Kind {
		case KindOpen:
			fmt.Fprintf(&b, "open %s\n", r.Path)
		case KindRead:
			fmt.Fprintf(&b, "read %d %d\n", r.Off, r.Len)
		case KindThink:
			fmt.Fprintf(&b, "think %d\n", r.Cycles)
		case KindClose:
			b.WriteString("close\n")
		}
	}
	return b.String()
}

// Capture records a read stream as a replayable trace. The core runtime
// calls Read once per application read call (Config.Capture); workload
// generators use it directly as a trace builder. Opens and closes are
// derived from the read stream — a path switch closes the previous file and
// opens the next — which is exact because simulated opens cost no disk I/O:
// the access sequence a trace reproduces is entirely determined by its
// reads. Replaying a captured trace and capturing *that* therefore yields
// the identical read sequence, which is what the round-trip tests pin.
type Capture struct {
	recs []Rec
	cur  string
}

// Read records one read call: think cycles of compute since the previous
// record, then the read of [off, off+n) in path. n is the *requested*
// length, exactly as the application issued it (short reads and EOF probes
// replay as the same request).
func (c *Capture) Read(path string, off, n, think int64) {
	if think > 0 {
		c.recs = append(c.recs, Rec{Kind: KindThink, Cycles: think})
	}
	if path != c.cur {
		if c.cur != "" {
			c.recs = append(c.recs, Rec{Kind: KindClose})
		}
		c.recs = append(c.recs, Rec{Kind: KindOpen, Path: path})
		c.cur = path
	}
	c.recs = append(c.recs, Rec{Kind: KindRead, Off: off, Len: n})
}

// Trace finalizes the capture into a well-formed trace (closing the last
// open file). The capture remains usable; Trace can be called again after
// further reads.
func (c *Capture) Trace() *Trace {
	recs := append([]Rec(nil), c.recs...)
	if c.cur != "" {
		recs = append(recs, Rec{Kind: KindClose})
	}
	return &Trace{Recs: recs}
}

// PopulateFS creates any file the trace touches that fs does not already
// have, sized to cover the trace's furthest read and holding sparse
// deterministic markers (a path-and-offset hash every 512 bytes, the last one
// cut at the end of the file), so that replayed checksums are reproducible.
// The files are generated: their content is rendered when read, never stored.
// Files that already exist — a host directory loaded under the same paths, or
// a benchmark workload — are left alone.
func PopulateFS(fs *fsim.FS, t *Trace) error {
	need := map[string]int64{}
	order := []string{}
	cur := ""
	for _, r := range t.Recs {
		switch r.Kind {
		case KindOpen:
			cur = r.Path
			if _, seen := need[cur]; !seen {
				need[cur] = 0
				order = append(order, cur)
			}
		case KindRead:
			if end := r.Off + r.Len; cur != "" && end > need[cur] {
				need[cur] = end
			}
		}
	}
	for _, path := range order {
		if _, ok := fs.Lookup(path); ok {
			continue
		}
		size := need[path]
		h := pathHash(path)
		marker := func(r int64) uint64 { return h ^ uint64(r*512)*0x9e3779b97f4a7c15 }
		if _, err := fs.CreateGenerated(path, size, fsim.Stamped(size, 512, true, marker)); err != nil {
			return fmt.Errorf("trace: populate %s: %v", path, err)
		}
	}
	return nil
}

// pathHash is FNV-1a, inlined to keep the package dependency-free.
func pathHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
