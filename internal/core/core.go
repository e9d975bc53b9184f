// Package core is the speculative-execution runtime: it wires the VM, TIP,
// the disk array and the file system together and implements everything the
// paper's SpecHint runtime did at run time —
//
//   - the speculating thread's lifecycle under a strict-priority policy
//     (speculation consumes only cycles the original thread spends stalled
//     on disk reads),
//   - the hint log and the on-track/off-track detection the original thread
//     performs before every read,
//   - the cooperative restart protocol (register save, restart flag, hint
//     cancellation, COW reset, stack copy, resume after the blocked read in
//     shadow code), and
//   - the §5 ad-hoc throttle that disables speculation for a while after a
//     burst of cancellations.
//
// A System runs one application in one of three modes — NoHint (the paper's
// "Original"), Speculating (SpecHint-transformed), or Manual (programmer-
// inserted hints) — and collects the statistics behind every table and
// figure in the paper's evaluation.
package core

import (
	"bytes"
	"fmt"
	"slices"

	"spechint/internal/cache"
	"spechint/internal/disk"
	"spechint/internal/fault"
	"spechint/internal/fsim"
	"spechint/internal/obs"
	"spechint/internal/sim"
	"spechint/internal/tip"
	"spechint/internal/trace"
	"spechint/internal/vm"
)

// Mode selects the hinting strategy, matching the paper's three bars.
type Mode int

const (
	// ModeNoHint runs the unmodified application; only the OS's sequential
	// read-ahead prefetches.
	ModeNoHint Mode = iota
	// ModeSpeculating runs a SpecHint-transformed binary with a speculating
	// thread generating hints during I/O stalls.
	ModeSpeculating
	// ModeManual runs an application with programmer-inserted hint calls.
	ModeManual
	// ModeStatic runs the unmodified application with hints synthesized
	// offline by static analysis (internal/analysis.Synthesize) and issued
	// in bulk at program start. The hints are in Proc.StaticHints; they
	// cost the application zero cycles because no code was added to it.
	ModeStatic
)

func (m Mode) String() string {
	switch m {
	case ModeNoHint:
		return "original"
	case ModeSpeculating:
		return "speculating"
	case ModeManual:
		return "manual"
	case ModeStatic:
		return "static"
	}
	return "unknown"
}

// CPUHz is the simulated processor frequency (AlphaStation 255, 233 MHz);
// used only to convert cycles to seconds in reports.
const CPUHz = 233e6

// The fixed costs of the runtime, in cycles. The first three are the
// observable overheads on the original thread's path (paper §3.2.2: "at
// most, checking an entry in the hint log and saving its registers once per
// read").
const (
	hintLogCheckCycles = 20
	regSaveCycles      = 64
	initCycles         = 50_000 // one-time: spawn the speculating thread etc.

	// copyPer8B charges user-buffer copies (read results, writes).
	copyPer8B = 1

	// printCycles is the extra cost of output routines (they flush buffers;
	// the paper removes them from shadow code because they are expensive).
	printCycles = 2_000

	// restartBaseCycles is the fixed part of a speculation restart; the
	// stack copy adds copyPer8B per 8 bytes of live stack.
	restartBaseCycles = 1_000

	// adaptiveThreshold and adaptiveBackoff drive Proc.AdaptiveThrottle:
	// restarts are gated while TIP's accuracy estimate is below the
	// threshold, backing off from the initial cycles and doubling.
	adaptiveThreshold = 0.2
	adaptiveBackoff   = 50_000_000
)

// Node is what a substrate is built from (NewSubstrateOn): the disk array,
// the TIP manager and cache over it, the disk half of a fault plan and the
// trace the layers are wired to.
type Node struct {
	Disk disk.Config
	TIP  tip.Config

	// Faults, when non-nil, is installed as the disk array's fault injector;
	// every process on the substrate meets the same schedule.
	Faults *fault.Plan

	// Obs, when non-nil, is the cross-layer observability stream the layers
	// are wired to (disk spans, cache and TIP events, metric gauges); each
	// process emits its own events under its own lane. Purely observational
	// — enabling it changes no run's cycle count.
	Obs *obs.Trace
}

// Proc is what one process runs with on a substrate (NewOn).
type Proc struct {
	Mode    Mode
	Machine vm.Config

	// CancelThrottle, when > 0, disables speculation for
	// CancelThrottleCycles after that many restarts (paper §5's ad-hoc
	// mechanism for limiting erroneous-hint damage).
	CancelThrottle       int
	CancelThrottleCycles int64

	// AdaptiveThrottle is the paper's §5 "more generic method for limiting
	// the number of erroneous hints": instead of a fixed cancel count, gate
	// restarts on TIP's recent hint-accuracy estimate, backing off
	// exponentially while accuracy stays below adaptiveThreshold.
	AdaptiveThrottle bool

	// DualProcessor runs the speculating thread on a second processor, in
	// parallel with normal execution rather than only during I/O stalls —
	// the paper's §5 multiprocessor scenario. Speculation still has strictly
	// lower priority for shared resources (its prefetches remain
	// prefetch-priority at the disks).
	DualProcessor bool

	// MaxCycles aborts a runaway solo Run. Zero means no limit.
	MaxCycles int64

	// StaticHints is the synthesized hint list for ModeStatic, in the order
	// the run is expected to consume them (TIP bypasses — and penalizes —
	// out-of-order segments). A list in any other mode is a configuration
	// error.
	StaticHints []StaticHint

	// Capture, when non-nil, records the original thread's read stream as a
	// replayable trace (internal/trace): one record per read call, with the
	// compute cycles since the previous read as think time. Purely
	// observational — capturing changes no run's cycle count — and works in
	// every mode (only the original thread's demand reads are recorded).
	Capture *trace.Capture
}

// validate reports a process configuration error, if any.
func (p Proc) validate() error {
	if p.Mode < ModeNoHint || p.Mode > ModeStatic {
		return fmt.Errorf("core: bad mode %d", p.Mode)
	}
	if len(p.StaticHints) > 0 && p.Mode != ModeStatic {
		return fmt.Errorf("core: StaticHints given in mode %v", p.Mode)
	}
	return nil
}

// Config assembles a full system: a private node and the one process New
// runs on it.
type Config struct {
	Node
	Proc
}

// StaticHint is one statically synthesized disclosure: a future read of
// [Off, Off+N) in the file named Path that the analysis proved.
type StaticHint struct {
	Path string
	Off  int64
	N    int64
}

// TestbedDisk returns the paper's array: HP C2247-class disks (15 ms average
// access), 64 KB striping unit, 8 KB file-system blocks, with track-buffer
// read-ahead. Times are in 233 MHz CPU cycles.
func TestbedDisk(numDisks int) disk.Config {
	return disk.Config{
		NumDisks:       numDisks,
		BlockSize:      8192,
		StripeUnit:     65536,
		PositionCycles: 3_495_000, // ~15 ms
		TransferCycles: 466_000,   // ~2 ms (8 KB at ~4 MB/s)
		TrackBufCycles: 186_000,   // ~0.8 ms from the track buffer
		TrackBufBlocks: 4,
		DelayFactor:    1,
	}
}

// DefaultConfig returns the testbed configuration: four disks, 12 MB file
// cache.
func DefaultConfig(mode Mode) Config {
	return Config{
		Node: Node{Disk: TestbedDisk(4), TIP: tip.DefaultConfig()},
		Proc: Proc{Mode: mode, Machine: vm.DefaultConfig(), MaxCycles: 1 << 42},
	}
}

// logEntry is one hint-log record: the speculating thread's prediction of a
// future read call, identified exactly as the original thread will issue it.
type logEntry struct {
	ino, off, n int64
}

// pendingRead tracks the original thread's in-flight blocking read.
type pendingRead struct {
	fd   int64
	buf  int64
	file *fsim.File
	off  int64
	n    int64
	pc   int64 // original-text PC just after the read syscall

	// Stall-attribution state: when the stall began, whether the read
	// arrived hinted, and the substrate's fault-activity count at block
	// time (a delta at wake charges the stall to the fault bucket).
	stallStart sim.Time
	hinted     bool
	faultsAt   int64
}

// RunStats is everything one run produces; the bench harness assembles the
// paper's tables and figures from these.
type RunStats struct {
	Mode     Mode
	Elapsed  sim.Time
	OrigBusy int64 // cycles the original thread computed
	SpecBusy int64 // cycles the speculating thread consumed (stall time)

	ReadCalls   int64 // explicit read calls by the original thread
	HintedReads int64 // data-returning reads that arrived hinted
	WriteCalls  int64
	WriteBytes  int64

	Restarts    int64
	SpecSignals int64
	SpecInstrs  int64
	OrigInstrs  int64
	ExitCode    int64

	// Fault-injection outcomes. ReadErrors counts demand reads that
	// surfaced to the application as EIO (only a dead disk can cause one —
	// transient faults retry until they succeed). FaultRestarts counts
	// speculation restarts forced so that shadow code resumes with the same
	// errno the original thread saw; they are a subset of Restarts.
	// TipFaults is the substrate's degradation activity; Degraded says the
	// run ended with at least one dead disk.
	ReadErrors    int64
	FaultRestarts int64
	TipFaults     tip.FaultCounters
	Degraded      bool

	FootprintBytes int64
	HintLogPeak    int

	MedianReadGap int64 // median original-thread cycles between successive reads
	MedianHintGap int64 // median speculating-thread cycles between successive hints

	// ReadSites breaks the read counters down by call-site PC (the address
	// of the read syscall instruction in the original text), letting the
	// static analysis's per-site classes be weighed against what the
	// run actually did.
	ReadSites map[int64]*ReadSiteStats

	// Buckets is the exact stall attribution: every elapsed virtual cycle
	// of the run charged to exactly one bucket (see StallBuckets).
	Buckets StallBuckets

	Tip    tip.Stats
	Cache  cache.Stats
	Disk   disk.Stats
	Pages  vm.PageStats
	Output string
}

// StallBuckets decomposes a run's elapsed virtual time, in cycles. The
// buckets are mutually exclusive and exhaustive: their sum equals Elapsed
// exactly (internal/bench asserts this for every cell of its ledger).
//
//   - Compute: the original thread executing application work.
//   - SpecOverhead: cycles the speculation machinery added to the original
//     thread's own path — thread spawn (initCycles), the per-read hint-log
//     check, and register saves at off-track detections. Zero outside
//     ModeSpeculating.
//   - HintedStall: the original thread blocked on a read that arrived
//     hinted (prefetching shortened, but did not fully hide, its latency).
//   - UnhintedStall: the original thread blocked on an unhinted read.
//   - FaultStall: the original thread blocked on a read whose service
//     involved fault handling — a surfaced I/O error, or at least one
//     transient-failure retry/backoff anywhere in the substrate while the
//     read was in flight (substrate-wide attribution: under
//     multiprogramming another process's retry storm can charge this
//     bucket, which is exactly the interference being measured).
//   - SchedWait: the original thread runnable but not scheduled. In a
//     single-process run without speculation it is exactly zero (a runnable
//     original thread always runs immediately). With a speculating thread it
//     is near zero but not exact: a speculative CPU slice may overshoot the
//     disk completion that wakes the original thread by the granularity of
//     its final instruction, and those few cycles are genuinely
//     runnable-but-waiting. Under multiprogramming it is the CPU queueing
//     delay behind the other processes' quanta.
type StallBuckets struct {
	Compute       int64
	SpecOverhead  int64
	HintedStall   int64
	UnhintedStall int64
	FaultStall    int64
	SchedWait     int64
}

// Total returns the sum of every bucket, which equals the run's elapsed
// cycles.
func (b StallBuckets) Total() int64 {
	return b.Compute + b.SpecOverhead + b.HintedStall + b.UnhintedStall + b.FaultStall + b.SchedWait
}

// ReadSiteStats counts one read call site's dynamic behavior.
type ReadSiteStats struct {
	Calls     int64 // read calls executed at this site
	DataCalls int64 // calls that returned data (the rest are EOF probes)
	Hinted    int64 // data-returning calls that arrived hinted
}

// Seconds converts the elapsed virtual time to testbed seconds.
func (s *RunStats) Seconds() float64 { return float64(s.Elapsed) / CPUHz }

// StallCycles is the time the original thread spent blocked.
func (s *RunStats) StallCycles() int64 { return int64(s.Elapsed) - s.OrigBusy }

// DilationFactor is the ratio of the median inter-hint interval to the
// median inter-read interval (§4.4; >1 mainly due to copy-on-write checks).
func (s *RunStats) DilationFactor() float64 {
	if s.MedianReadGap <= 0 || s.MedianHintGap <= 0 {
		return 0
	}
	return float64(s.MedianHintGap) / float64(s.MedianReadGap)
}

// median sorts xs in place and returns its middle element, 0 if it is empty.
func median(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// Substrate is the shared I/O platform a System runs on: one virtual clock,
// one file system, one disk array, and one TIP manager. It is every node of
// the reproduction: a single-process run owns a private one (New builds it),
// the multiprogramming layer runs many Systems on one with NewOn, and every
// cluster shard is one behind its front door.
type Substrate struct {
	Clk *sim.Queue
	FS  *fsim.FS
	Arr *disk.Array
	TIP *tip.Manager
	Obs *obs.Trace // the trace the layers are wired to (nil = untraced)
}

// NewSubstrate assembles a substrate over fs on a clock of its own, with
// perfect disks and no trace.
func NewSubstrate(diskCfg disk.Config, tipCfg tip.Config, fs *fsim.FS) (*Substrate, error) {
	return NewSubstrateOn(sim.NewQueue(), Node{Disk: diskCfg, TIP: tipCfg}, fs)
}

// NewSubstrateOn assembles node's substrate over fs on clk: the disk array,
// with the disk half of node.Faults validated and installed as its injector
// (nil is perfect hardware), and the TIP manager over it, both wired to
// node.Obs (nil is untraced). It is where a node's settings are validated.
// The standard metric gauges are a separate step (AddGauges), because a
// cluster shard registers its own.
func NewSubstrateOn(clk *sim.Queue, node Node, fs *fsim.FS) (*Substrate, error) {
	if fs.BlockSize() != node.Disk.BlockSize {
		return nil, fmt.Errorf("core: fs block size %d != disk block size %d", fs.BlockSize(), node.Disk.BlockSize)
	}
	arr, err := disk.New(clk, node.Disk)
	if err != nil {
		return nil, err
	}
	if f := node.Faults; f != nil {
		if err := f.ValidateDisk(); err != nil {
			return nil, err
		}
		if f.DieDisk >= node.Disk.NumDisks {
			return nil, fmt.Errorf("core: fault plan kills disk %d of %d", f.DieDisk, node.Disk.NumDisks)
		}
		arr.SetInjector(f)
	}
	tm, err := tip.New(clk, arr, fs, node.TIP)
	if err != nil {
		return nil, err
	}
	arr.SetObs(node.Obs)
	tm.SetObs(node.Obs)
	return &Substrate{Clk: clk, FS: fs, Arr: arr, TIP: tm, Obs: node.Obs}, nil
}

// AddGauges registers the standard metric gauges on the substrate's trace
// (cache hit ratio and occupancy, disk utilization and per-disk queue depth,
// outstanding prefetch depth, hint accuracy); it does nothing untraced.
func (sub *Substrate) AddGauges() {
	tr := sub.Obs
	if tr == nil {
		return
	}
	clk, arr, tm := sub.Clk, sub.Arr, sub.TIP
	tr.AddGauge("cache_hit_ratio", func() float64 {
		st := tm.Cache().Stats()
		if st.Hits+st.Misses == 0 {
			return 0
		}
		return float64(st.Hits) / float64(st.Hits+st.Misses)
	})
	tr.AddGauge("cache_used_blocks", func() float64 { return float64(tm.Cache().Len()) })
	tr.AddGauge("disk_utilization", func() float64 {
		now := clk.Now()
		if now == 0 {
			return 0
		}
		return float64(arr.Stats().BusyCycles) / float64(now) / float64(arr.Config().NumDisks)
	})
	for i := 0; i < arr.Config().NumDisks; i++ {
		i := i
		tr.AddGauge(fmt.Sprintf("disk%d_queue_depth", i), func() float64 { return float64(arr.Outstanding(i)) })
	}
	tr.AddGauge("prefetch_depth", func() float64 { return float64(tm.PrefetchDepth()) })
	tr.AddGauge("hint_accuracy", func() float64 { return tm.MeanAccuracy() })
}

// System is one configured run: program + mode + substrate.
type System struct {
	cfg  Proc
	clk  *sim.Queue
	fs   *fsim.FS
	arr  *disk.Array
	tip  *tip.Manager
	tipc *tip.Client // this process's hint stream
	mach *vm.Machine
	prog *vm.Program

	name  string // label in diagnostics and trace lanes
	group *group // the scheduler running this process (set by RunGroup)

	orig    *vm.Thread
	spec    *vm.Thread
	origFDs *fsim.FDTable
	specFDs *fsim.FDTable

	hintLog []logEntry
	logNext int

	restartPending   bool
	restartRemaining int64
	backoffCycles    int64 // current adaptive-throttle backoff
	savedRegs        [vm.NumRegs]int64
	savedResult      int64
	savedPC          int64 // original-text PC just after the read syscall
	savedFD          int64 // descriptor of the off-track read
	savedOff         int64 // its file offset before the read
	cancelsRecent    int
	disabledUntil    sim.Time

	// The original thread's blocking read: pending is nil or points at read,
	// the one record a System needs (its thread blocks on one read at a
	// time), and readDone is completeRead, bound once for every read.
	pending  *pendingRead
	read     pendingRead
	readDone func(error)

	strBuf      []byte // scratch a string argument (a path, a message to print) is read into
	out         bytes.Buffer
	sliceStart  sim.Time
	inWindow    bool       // runSpecWindow is running the speculating thread; see Syscall
	obs         *obs.Trace // cross-layer stream (nil = untraced)
	watchdogErr error      // fatal inconsistency caught by the deadlock watchdog

	stats           RunStats
	final           *RunStats // detached snapshot taken at exit (see finalize)
	lastOrigReadAt  int64
	lastSpecHintAt  int64
	readGaps        []int64 // busy cycles between successive reads, and between hints;
	hintGaps        []int64 // finalize keeps only their medians
	sawSpecHint     bool
	sawOrigRead     bool
	lastCaptureBusy int64 // original-thread busy cycles at the last captured read
}

// New builds a System for prog over fs, on a private substrate. In
// ModeSpeculating the program must be SpecHint-transformed; in the other
// modes it must not be.
func New(cfg Config, prog *vm.Program, fs *fsim.FS) (*System, error) {
	sub, err := NewSubstrateOn(sim.NewQueue(), cfg.Node, fs)
	if err != nil {
		return nil, err
	}
	sub.AddGauges()
	return NewOn(sub, cfg.Proc, prog, "app")
}

// NewOn builds a System for prog over an existing substrate, registering a
// fresh TIP client for its hint stream. Everything node-wide (disks, TIP,
// faults, trace) is the substrate's; cfg is what applies per process (mode,
// machine, throttles). name labels the process in diagnostics.
func NewOn(sub *Substrate, cfg Proc, prog *vm.Program, name string) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	transformed := prog.ShadowBase > 0
	if cfg.Mode == ModeSpeculating && !transformed {
		return nil, fmt.Errorf("core: ModeSpeculating requires a SpecHint-transformed program")
	}
	if cfg.Mode != ModeSpeculating && transformed {
		return nil, fmt.Errorf("core: mode %v with a transformed program", cfg.Mode)
	}

	s := &System{
		cfg: cfg, clk: sub.Clk, fs: sub.FS, arr: sub.Arr, tip: sub.TIP,
		tipc: sub.TIP.NewClient(), prog: prog, name: name,
		obs: sub.Obs,
	}
	s.readDone = s.completeRead
	var err error
	s.mach, err = vm.NewMachine(prog, s, cfg.Machine)
	if err != nil {
		return nil, err
	}
	s.orig = s.mach.NewThread("original", vm.Normal)
	s.origFDs = fsim.NewFDTable()
	if cfg.Mode == ModeSpeculating {
		s.spec = s.mach.NewThread("speculating", vm.Speculative)
		s.specFDs = fsim.NewFDTable()
		s.orig.PendingCycles += initCycles
		// The spawn cost executes on the original thread's path: it is
		// speculation overhead, not application compute.
		s.stats.Buckets.SpecOverhead += initCycles
	}
	s.stats.Mode = cfg.Mode
	if cfg.Mode == ModeStatic {
		s.issueStaticHints()
	}
	return s, nil
}

// Release hands the machine's memory back for the next System to reuse, once
// the run is over: the System must not run again, and its RunStats stay
// valid.
func (s *System) Release() { s.mach.Release() }

// issueStaticHints discloses the synthesized hint list at clock zero,
// before the first instruction runs. The application itself is unmodified,
// so nothing is charged to its path: static mode's SpecOverhead is zero by
// construction. Every static hint is a proved one, so the client is marked
// proved (tip.Client.Proved) before its first hint, unless no hinted file
// exists and it discloses nothing.
func (s *System) issueStaticHints() {
	n := 0
	for _, h := range s.cfg.StaticHints {
		if _, ok := s.fs.Lookup(h.Path); ok {
			n++
		}
	}
	if n == 0 {
		return
	}
	s.tipc.Proved()
	for _, h := range s.cfg.StaticHints {
		f, ok := s.fs.Lookup(h.Path)
		if !ok {
			// A synthesized hint for a file the run does not have would be a
			// false hint; skip it (speclint's dynamic verification reports
			// such hints against the golden run).
			continue
		}
		s.tipc.HintSeg(f, h.Off, h.N)
	}
}

// TIP exposes the prefetching manager (tests, tools).
func (s *System) TIP() *tip.Manager { return s.tip }

// Summarised returns how many of each thread's instructions the VM retired
// in bulk — spin, word-sum and byte-scan loops — instead of dispatching them
// (vm.Thread.Summarised; spec is 0 without a speculating thread). It is what the simulator spent, not what it simulated — it moves
// with the scheduling quantum — so RunStats does not carry it.
func (s *System) Summarised() (orig, spec int64) {
	if s.spec != nil {
		spec = s.spec.Summarised
	}
	return s.orig.Summarised, spec
}

// Name returns the label given at NewOn ("app" for a private System).
func (s *System) Name() string { return s.name }

// preemptNow reports whether speculation must yield the CPU immediately: the
// strict-priority test is group-wide, so speculation uses only cycles no
// original thread on the substrate wants.
func (s *System) preemptNow() bool { return s.group.anyOrigReady() }
