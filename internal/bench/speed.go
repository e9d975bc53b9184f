package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"spechint/internal/apps"
	"spechint/internal/sim"
	"spechint/internal/vm"
)

// The speed experiment tracks the raw throughput of the simulator's two
// hottest loops — the event queue and the VM interpreter — plus the
// end-to-end benchmark sweep they gate (ROADMAP item 3).
//
// Its two faces are different measurements (`tipbench -exp speed`):
//
//   - the text (speedSelfCheck) is fully deterministic: it drives the fast
//     paths — free-listed scheduling, RunTick batching, pre-decoded
//     dispatch — over fixed op counts and prints only counts and
//     virtual-clock results, so the serial-vs-parallel differential test
//     can byte-compare it like any experiment.
//   - the JSON (SpeedJSON) measures wall-clock ns/op for the same shapes
//     plus the end-to-end suite grid, for the CI smoke. Wall numbers are
//     machine-dependent by nature: this is the one report exempt from
//     byte-identity checks.

// SpeedCell is one wall-clock microbenchmark result.
type SpeedCell struct {
	Name        string  `json:"name"`
	Ops         int64   `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	PerSec      float64 `json:"per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// SpeedEnd is the end-to-end arm: wall time of the full three-app,
// three-mode suite grid (the work behind fig3/table4/table5).
type SpeedEnd struct {
	Scale       string  `json:"scale"`
	Runs        int     `json:"runs"`
	Parallelism int     `json:"parallelism"`
	WallMS      float64 `json:"wall_ms"`
}

// SpeedReport is the speed family's JSON face.
type SpeedReport struct {
	Schema    string      `json:"schema"`
	EventLoop []SpeedCell `json:"event_loop"`
	VM        []SpeedCell `json:"vm"`
	EndToEnd  SpeedEnd    `json:"end_to_end"`
}

// SpeedSchema identifies the export format.
const SpeedSchema = "spechint-bench-speed/v1"

// speedStandingHeap is the standing queue depth for the steady-state shape:
// the regime a busy disk array and thread scheduler keep the queue in.
const speedStandingHeap = 512

// speedBurst is the events-per-tick burst for the batched shape: the regime
// a loaded cluster shard keeps the queue in (many completions per instant).
const speedBurst = 64

// speedVMProg is the interpreter microbench program: a tight
// ALU/store/load/branch loop, the mix the benchmark applications keep the
// VM in. The trailing JMP spins so budget-bound slices always fill.
func speedVMProg() *vm.Program {
	return &vm.Program{
		Text: []vm.Instr{
			{Op: vm.MOVI, Rd: 10, Imm: 1 << 62},
			{Op: vm.MOVI, Rd: 11, Imm: 512},
			// loop:
			{Op: vm.ADDI, Rd: 12, Rs1: 12, Imm: 3},
			{Op: vm.MUL, Rd: 13, Rs1: 12, Rs2: 12},
			{Op: vm.STW, Rs1: 11, Rs2: 13, Imm: 0},
			{Op: vm.LDW, Rd: 14, Rs1: 11, Imm: 0},
			{Op: vm.XOR, Rd: 12, Rs1: 12, Rs2: 14},
			{Op: vm.ADDI, Rd: 10, Rs1: 10, Imm: -1},
			{Op: vm.BNE, Rs1: 10, Rs2: vm.R0, Imm: 2},
			{Op: vm.JMP, Imm: 9},
		},
		Data:     make([]byte, 1024),
		DataSize: 1024,
	}
}

// speedOS refuses syscalls; the microbench program makes none.
type speedOS struct{}

func (speedOS) Syscall(*vm.Machine, *vm.Thread, int64) vm.SysControl { return vm.SysFault }

func speedMachine() (*vm.Machine, *vm.Thread, error) {
	cfg := vm.DefaultConfig()
	m, err := vm.NewMachine(speedVMProg(), speedOS{}, cfg)
	if err != nil {
		return nil, nil, err
	}
	return m, m.NewThread("speed", vm.Normal), nil
}

// speedFaces is the speed family's report: the deterministic self-check as
// text, the wall-clock SpeedReport (promoted through the embedding) as JSON.
type speedFaces struct {
	text string
	*SpeedReport
}

func (r speedFaces) Text() string { return r.text }

// speed is the registry entry: both measurements, taken once.
func speed(scale apps.Scale) (Report, error) {
	text, err := speedSelfCheck()
	if err != nil {
		return nil, err
	}
	rep, err := SpeedJSON(scale, scale.Name)
	if err != nil {
		return nil, err
	}
	return speedFaces{text, rep}, nil
}

// speedSelfCheck exercises every fast path with fixed op counts and reports
// only counts and virtual-time results (no wall clock, no allocation
// averages), so its output is byte-identical at any parallelism on any
// machine.
func speedSelfCheck() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "simulator speed self-check (deterministic; wall-clock numbers: tipbench -exp speed -json FILE)\n\n")

	// Steady state: standing heap, one schedule + one pop per cycle.
	{
		q := sim.NewQueue()
		ran := 0
		fn := func() { ran++ }
		for i := 0; i < speedStandingHeap; i++ {
			q.Schedule(sim.Time(i*13%509), fn)
		}
		const ops = 200_000
		for i := 0; i < ops; i++ {
			q.Schedule(q.Now()+sim.Time(i%61+1), fn)
			q.RunNext()
		}
		drained := q.Drain()
		fmt.Fprintf(&b, "event-loop steady-state: ops=%d standing=%d ran=%d drained=%d clock=%d len=%d\n",
			ops, speedStandingHeap, ran, drained, q.Now(), q.Len())
	}

	// Burst ticks: 64 simultaneous events per instant, drained by RunTick.
	{
		q := sim.NewQueue()
		ran := 0
		fn := func() { ran++ }
		const ticks = 2_000
		for t := 0; t < ticks; t++ {
			at := q.Now() + 10
			for j := 0; j < speedBurst; j++ {
				q.Schedule(at, fn)
			}
			tickCalls := 0
			for q.RunTick() {
				tickCalls++
			}
			if tickCalls != 1 {
				return "", fmt.Errorf("bench: burst of %d events took %d RunTick calls, want 1", speedBurst, tickCalls)
			}
		}
		fmt.Fprintf(&b, "event-loop burst ticks:  ticks=%d burst=%d ran=%d clock=%d\n",
			ticks, speedBurst, ran, q.Now())
	}

	// Cancel/free-list churn: schedule, cancel half through stale-safe
	// handles, drain the rest.
	{
		q := sim.NewQueue()
		ran := 0
		fn := func() { ran++ }
		const ops = 50_000
		handles := make([]sim.Handle, 0, ops)
		for i := 0; i < ops; i++ {
			handles = append(handles, q.Schedule(sim.Time(i*7%4093), fn))
		}
		for i := 0; i < ops; i += 2 {
			q.Cancel(handles[i])
		}
		drained := q.Drain()
		for _, h := range handles { // every handle is stale now; all inert
			q.Cancel(h)
		}
		fmt.Fprintf(&b, "event-loop cancel churn: ops=%d ran=%d drained=%d clock=%d\n",
			ops, ran, drained, q.Now())
	}

	// VM: pre-decoded dispatch over the ALU/memory loop.
	{
		m, th, err := speedMachine()
		if err != nil {
			return "", err
		}
		const budget = 1_000_000
		used, stop := m.Run(th, budget)
		if stop != vm.StopBudget {
			return "", fmt.Errorf("bench: speed VM stopped %v (err %v)", stop, th.Err)
		}
		fmt.Fprintf(&b, "vm dispatch:             cycles=%d instrs=%d loads=%d stores=%d r12=%d\n",
			used, th.Instrs, th.Loads, th.Stores, th.Regs[12])
	}
	return b.String(), nil
}

// timeCell runs f once for wall time and derives per-op figures from the
// operation count f returns; allocs is the separately measured allocation
// average per op.
func timeCell(name string, allocs float64, f func() (ops int64)) SpeedCell {
	start := time.Now()
	ops := f()
	ns := float64(time.Since(start).Nanoseconds()) / float64(ops)
	perSec := 0.0
	if ns > 0 {
		perSec = 1e9 / ns
	}
	return SpeedCell{Name: name, Ops: ops, NsPerOp: ns, PerSec: perSec, AllocsPerOp: allocs}
}

// SpeedJSON measures wall-clock throughput of the event loop, the VM, and
// the end-to-end suite grid at the given scale (scaleName labels it in the
// export). Numbers vary run to run and machine to machine; the committed
// trajectory lives in bench/perf/results/ (sim.*, vm.step_ns).
func SpeedJSON(scale apps.Scale, scaleName string) (*SpeedReport, error) {
	rep := &SpeedReport{Schema: SpeedSchema}

	// Steady-state: one schedule + one pop over a standing heap.
	{
		q := sim.NewQueue()
		fn := func() {}
		for i := 0; i < speedStandingHeap; i++ {
			q.Schedule(sim.Time(i*13%509), fn)
		}
		i := 0
		allocs := testing.AllocsPerRun(4096, func() {
			q.Schedule(q.Now()+sim.Time(i%61+1), fn)
			q.RunNext()
			i++
		})
		const ops = 2_000_000
		rep.EventLoop = append(rep.EventLoop, timeCell("steady512", allocs, func() int64 {
			for i := 0; i < ops; i++ {
				q.Schedule(q.Now()+sim.Time(i%61+1), fn)
				q.RunNext()
			}
			return ops
		}))
	}

	// Burst ticks: 64 events per instant, drained by RunTick.
	{
		q := sim.NewQueue()
		fn := func() {}
		burstTick := func() {
			at := q.Now() + 10
			for j := 0; j < speedBurst; j++ {
				q.Schedule(at, fn)
			}
			for q.RunTick() {
			}
		}
		burstTick() // warm arena + free list
		allocsPerTick := testing.AllocsPerRun(512, burstTick)
		const ticks = 30_000
		cell := timeCell("burst64", allocsPerTick/speedBurst, func() int64 {
			for t := 0; t < ticks; t++ {
				burstTick()
			}
			return ticks * speedBurst
		})
		rep.EventLoop = append(rep.EventLoop, cell)
	}

	// VM: pre-decoded dispatch, budget-bound slices of 4096 cycles. An op is
	// an instruction, counted from th.Instrs: the loop retires 7 of them in
	// 9 cycles (MUL costs 3).
	{
		m, th, err := speedMachine()
		if err != nil {
			return nil, err
		}
		slices := int64(0)
		slice := func() {
			slices++
			if _, stop := m.Run(th, 4096); stop != vm.StopBudget {
				panic(fmt.Sprintf("bench: speed VM stopped %v (err %v)", stop, th.Err))
			}
		}
		before := th.Instrs
		allocsPerSlice := testing.AllocsPerRun(256, slice)
		instrsPerSlice := float64(th.Instrs-before) / float64(slices)
		cell := timeCell("vmstep", allocsPerSlice/instrsPerSlice, func() int64 {
			start := th.Instrs
			for i := 0; i < 8_000_000/4096; i++ {
				slice()
			}
			return th.Instrs - start
		})
		rep.VM = append(rep.VM, cell)
	}

	// End to end: the full three-app, three-mode suite grid.
	{
		start := time.Now()
		if _, err := suiteTriples(scale); err != nil {
			return nil, err
		}
		rep.EndToEnd = SpeedEnd{
			Scale:       scaleName,
			Runs:        3 * len(Apps),
			Parallelism: Parallelism,
			WallMS:      float64(time.Since(start).Microseconds()) / 1000,
		}
	}
	return rep, nil
}
