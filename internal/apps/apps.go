// Package apps contains the three TIP-suite benchmark applications as VM
// assembly programs, each in two source variants:
//
//   - the original application (no hints) — SpecHint transforms this binary
//     for the speculating runs, exactly as the paper transformed unmodified
//     binaries;
//   - the manually-modified application with programmer-inserted hint calls
//     (the paper's comparison baseline), restructured where the paper's
//     authors restructured (Gnuld batches its metadata passes so hints can
//     be issued earlier).
//
// The applications are structurally faithful to the originals' access
// patterns: Agrep's reads are fully determined by its argument list, Gnuld
// chases pointers through object-file metadata, and XDataSlice's block
// addresses are computable from one header read.
package apps

import (
	"fmt"

	"spechint/internal/asm"
	"spechint/internal/fsim"
	"spechint/internal/par"
	"spechint/internal/spechint"
	"spechint/internal/trace"
	"spechint/internal/vm"
	"spechint/internal/workload"
)

// App identifies a benchmark application.
type App int

const (
	Agrep App = iota
	Gnuld
	XDataSlice
	Postgres
	// The modern suite (ROADMAP item 4): trace-built applications compiled
	// through the internal/trace replay frontend.
	LSM
	MLShard
)

func (a App) String() string {
	switch a {
	case Agrep:
		return "Agrep"
	case Gnuld:
		return "Gnuld"
	case XDataSlice:
		return "XDataSlice"
	case Postgres:
		return "Postgres"
	case LSM:
		return "LSM"
	case MLShard:
		return "MLShard"
	}
	return "unknown"
}

// Bundle is a fully prepared benchmark: file system plus the three program
// variants (original, transformed, manual). A bundle from Build is shared by
// every run at its (app, scale): all of it is read-only. The static hint
// synthesis over the original binary lives one layer up (bench.Synth) — the
// analysis package's tests build bundles, so apps cannot import analysis.
type Bundle struct {
	App         App
	FS          *fsim.FS
	Original    *vm.Program
	Transformed *vm.Program
	Manual      *vm.Program
	Transform   spechint.Stats
}

// Build returns app's prepared benchmark at the given scale: its own file
// system populated by the workload generator, plus the program variants. A
// built workload is immutable — no syscall writes a file, and the file system
// is sealed before the bundle is published — so the whole bundle is a
// deterministic function of (app, scale) and is built once: every cell of a
// sweep at that key, on any worker, runs against the same *Bundle, and every
// BuildOn at that key copies its files.
func Build(app App, scale Scale) (*Bundle, error) {
	return bundleCache.Get(progKey{app, scale}, func() (*Bundle, error) { return build(app, scale) })
}

// BuildOn lays app's workload at the given scale onto an existing file
// system and returns the bundle over it. The multiprogramming layer uses it to
// lay several processes' workloads onto one shared file system; scale
// prefixes (see Scale.WithProcess) keep their file sets disjoint.
//
// Nothing is generated on the caller's file system: the files of Build's
// bundle at the same key are created there in their creation order, sharing
// its stored bytes and content functions (fsim.CopyTo), so the caller's
// layout places them exactly as the generator would have, and the content,
// both assembly texts, the assembled binaries and the SpecHint transform are
// made once per key. The shared bundle is safe for concurrent builders (see
// internal/par).
func BuildOn(fs *fsim.FS, app App, scale Scale) (*Bundle, error) {
	b, err := Build(app, scale)
	if err != nil {
		return nil, err
	}
	if err := b.FS.CopyTo(fs); err != nil {
		return nil, fmt.Errorf("apps: %v: %w", app, err)
	}
	on := *b
	on.FS = fs
	return &on, nil
}

// build generates app's workload at scale on a fresh sealed file system with
// the benchmark layout, and assembles and transforms its programs.
func build(app App, scale Scale) (*Bundle, error) {
	fs := fsim.New(8192)
	workload.SetBenchLayout(fs)
	// source renders the original (manual=false) or hand-hinted assembly
	// text over the files just created.
	var source func(manual bool) string
	switch app {
	case Agrep:
		spec := scale.Agrep
		names := spec.Build(fs)
		source = func(m bool) string { return AgrepSource(names, spec.Pattern, m) }
	case Gnuld:
		spec := scale.Gnuld
		names := spec.Build(fs)
		source = func(m bool) string { return GnuldSource(names, spec, m) }
	case XDataSlice:
		name, slices := scale.XDS.Build(fs)
		source = func(m bool) string { return XDSSource(name, slices, m) }
	case Postgres:
		spec := scale.Postgres
		outer, inner := spec.Build(fs)
		source = func(m bool) string { return postgresSource(outer, inner, spec, m) }
	case LSM:
		tr := scale.LSM.Build(fs)
		source = func(m bool) string { return trace.Source(tr, m) }
	case MLShard:
		tr := scale.MLShard.Build(fs)
		source = func(m bool) string { return trace.Source(tr, m) }
	default:
		return nil, fmt.Errorf("apps: unknown app %d", app)
	}
	fs.Seal()
	b, err := assembleAndTransform(app, source(false), source(true))
	if err != nil {
		return nil, err
	}
	b.FS = fs
	return b, nil
}

// progKey identifies one built workload. Scale is a value type of plain ints
// and strings, so it is a usable (and exact) map key: any scale change —
// selectivity, prefix, seed — is a different key.
type progKey struct {
	app   App
	scale Scale
}

// bundleCache memoizes build per (app, scale) for the life of the process.
// vm.Program values are never mutated after assembly (machines copy Data into
// their own memory and only read Text) and files are immutable, so one bundle
// serves every concurrently running system at its key. Sweeps touch a handful
// of scales, so it stays small; ResetProgramCache drops it (tests and the
// benchmark that measure the build use it).
var bundleCache = par.NewCache[progKey, *Bundle]()

// ResetProgramCache empties the shared cache: the next Build or BuildOn at
// any key generates, assembles and transforms afresh.
func ResetProgramCache() { bundleCache.Reset() }

// ProgramCacheLen reports how many (app, scale) bundles are cached.
func ProgramCacheLen() int { return bundleCache.Len() }

// assembleAndTransform builds the three program variants from their
// sources. Note the transform's Stats.Elapsed is the wall-clock time of
// the one cached transform, not of the current caller.
func assembleAndTransform(app App, origSrc, manSrc string) (*Bundle, error) {
	orig, err := asm.Assemble(origSrc)
	if err != nil {
		return nil, fmt.Errorf("apps: %v original: %w", app, err)
	}
	man, err := asm.Assemble(manSrc)
	if err != nil {
		return nil, fmt.Errorf("apps: %v manual: %w", app, err)
	}
	tp, tstats, err := spechint.Transform(orig, spechint.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("apps: %v transform: %w", app, err)
	}
	return &Bundle{App: app, Original: orig, Transformed: tp, Manual: man, Transform: tstats}, nil
}

// Scale bundles the three workload specs so experiments can run at full
// benchmark scale or at a small test scale.
type Scale struct {
	Name     string // "full", "sweep" or "test": which constructor built it
	Agrep    workload.AgrepSpec
	Gnuld    workload.GnuldSpec
	XDS      workload.XDSSpec
	Postgres workload.PostgresSpec
	LSM      workload.LSMSpec
	MLShard  workload.MLShardSpec
}

// FullScale is the benchmark scale used for the paper's tables and figures.
func FullScale() Scale {
	return Scale{
		Name:     "full",
		Agrep:    workload.DefaultAgrep(),
		Gnuld:    workload.DefaultGnuld(),
		XDS:      workload.DefaultXDS(),
		Postgres: workload.DefaultPostgres(20),
		LSM:      workload.DefaultLSM(),
		MLShard:  workload.DefaultMLShard(),
	}
}

// SweepScale is FullScale with lighter XDataSlice and Gnuld inputs, for the
// parameter-sweep experiments (Figures 5 and 6 run dozens of full runs).
// The trace-built apps shrink too: their replay programs embed one table
// record per access, so sweep cells stay cheap to assemble and run.
func SweepScale() Scale {
	s := FullScale()
	s.Name = "sweep"
	s.XDS.NumSlices = 12
	s.Gnuld.NumFiles = 120
	s.LSM.TableSize = 1 << 20
	s.LSM.ChunkSize = 64 << 10
	s.LSM.Lookups = 32
	s.MLShard.Shards = 8
	s.MLShard.ShardSize = 1 << 20
	s.MLShard.ReadSize = 32 << 10
	return s
}

// WithProcess returns the scale adjusted for process i of a multiprogrammed
// group sharing one file system: every workload gets a per-process path
// prefix (disjoint file sets — each process reads its own data, as in the
// paper's multi-client TIP runs) and a seed offset (distinct content and
// access patterns, so N processes are N different instances, not N replicas).
func (s Scale) WithProcess(i int, seedStep int64) Scale {
	step := int64(i) * seedStep
	prefix := fmt.Sprintf("p%d/", i)
	s.Agrep.Prefix = prefix
	s.Agrep.Seed += step
	s.Gnuld.Prefix = prefix
	s.Gnuld.Seed += step
	s.XDS.Prefix = prefix
	s.XDS.Seed += step
	s.Postgres.Prefix = prefix
	s.Postgres.Seed += step
	s.LSM.Prefix = prefix
	s.LSM.Seed += step
	s.MLShard.Prefix = prefix
	s.MLShard.Seed += step
	return s
}

// TestScale is a small, fast scale for unit tests.
func TestScale() Scale {
	return Scale{
		Name:     "test",
		Agrep:    workload.AgrepSpec{NumFiles: 24, MeanSize: 7000, Pattern: "ENOTREACHED", Plants: 2, Seed: 1},
		Gnuld:    workload.GnuldSpec{NumFiles: 12, NumSections: 3, SectionSize: 4000, SymtabSize: 512, StrtabSize: 256, Seed: 2},
		XDS:      workload.XDSSpec{N: 64, NumSlices: 6, Seed: 3},
		Postgres: workload.PostgresSpec{OuterTuples: 2000, InnerTuples: 4000, InnerSize: 256, Selectivity: 30, Seed: 4},
		LSM:      workload.LSMSpec{L0Tables: 2, L1Tables: 2, TableSize: 64 << 10, ChunkSize: 16 << 10, Lookups: 8, Seed: 5},
		MLShard:  workload.MLShardSpec{Shards: 4, ShardSize: 128 << 10, ReadSize: 32 << 10, Epochs: 2, Seed: 6},
	}
}
