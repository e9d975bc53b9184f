package bench

import (
	"fmt"
	"testing"
	"time"

	"spechint/internal/apps"
	"spechint/internal/core"
	"spechint/internal/sim"
	"spechint/internal/vm"
)

// The speed measurements track the raw throughput of the simulator's two
// hottest loops — the event queue and the VM interpreter — plus the
// end-to-end suite grid they gate, in wall-clock ns/op. Wall numbers are
// machine-dependent by nature, so they are no registry experiment: bench/perf
// records them, and the fast paths' behaviour is asserted by the sim and vm
// packages' own tests (RunTick batching, stale-handle cancels, zero-allocation
// loops).

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

	// End to end: the full three-app, three-mode suite grid, through the
	// uncached Run so every call simulates.
	{
		start := time.Now()
		if _, err := parMap(3*len(Apps), func(i int) (*core.RunStats, error) {
			st, _, err := Run(Apps[i/3], tripleModes[i%3], scale, nil)
			return st, err
		}); err != nil {
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
