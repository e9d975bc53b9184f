package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// This guest's two vCPUs each share a physical core with a hyperthread that
// belongs to some other tenant. While that sibling is busy, code with high
// instruction-level parallelism — the VM interpreter above all — runs 1.4 to
// 1.7 times slower, in bursts of two to eight seconds that take up anything
// from a tenth to more than half of a minute. Neither the thread's CPU time
// nor a memory-latency probe sees the bursts; a few milliseconds of
// independent integer chains do, and take 1.35 to 1.5 times as long.
//
// quietGate runs that probe before every timed cell. While the sibling is
// busy it moves the measuring thread to the next vCPU — their siblings are
// busy independently of each other: 35% and 22% of a minute, 10% at once —
// and holds the cell back until one of them is quiet, so that samples are
// taken in quiet windows. The estimator does not change — each cell's fastest
// sample — the gate only decides when and where to sample.
type quietGate struct {
	best      time.Duration // the fastest probe so far: the quiet level
	allowance time.Duration // waiting allowed in this run
	waited    time.Duration
	hops      int

	cpus []int // the CPUs this process may run on
	cur  int   // index in cpus of the one the thread is pinned to; -1 before the first hop
}

type cpuMask [16]uint64

const (
	probeIters = 3_000_000 // about 5 ms when quiet
	quietSlack = 1.15      // a probe within 15% of the best one is quiet
)

var probeSink uint64

// probe times six independent integer chains: enough parallelism to fill the
// core's ports, so a busy sibling thread shows, and no memory traffic.
func probe() time.Duration {
	a, b, c, d, e, f := probeSink|1, uint64(2), uint64(3), uint64(4), uint64(5), uint64(6)
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		a = a*3 + 1
		b = b*5 + 2
		c = c ^ (c << 3) + 7
		d = d + (d >> 2) + 1
		e = e*7 + 3
		f = f ^ (f << 5) + 9
	}
	t := time.Since(start)
	probeSink = a + b + c + d + e + f
	return t
}

// newQuietGate learns the quiet level from a quarter of a second of probes,
// taken on every CPU in turn, and may hold cells back for allowance in all. A
// gate that starts with every sibling busy learns too slow a level and lets
// everything through until a faster probe corrects it: no worse than no gate.
//
// It locks the calling goroutine to its thread for good, which is what lets
// the gate pin that thread; the runtime starts its other threads from a clean
// template thread once the caller is locked, so they do not inherit the pin.
func newQuietGate(allowance time.Duration) *quietGate {
	runtime.LockOSThread()
	g := &quietGate{best: probe(), allowance: allowance, cur: -1}
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno == 0 {
		for cpu := 0; cpu < len(mask)*64; cpu++ {
			if mask[cpu/64]&(1<<(cpu%64)) != 0 {
				g.cpus = append(g.cpus, cpu)
			}
		}
	}
	for start := time.Now(); time.Since(start) < 250*time.Millisecond; {
		g.hop()
		g.observe()
	}
	return g
}

// hop pins the thread to the next CPU it may run on. Where the kernel refuses
// the thread stays put, and the gate only waits.
func (g *quietGate) hop() {
	if len(g.cpus) < 2 {
		return
	}
	g.cur = (g.cur + 1) % len(g.cpus)
	var mask cpuMask
	mask[g.cpus[g.cur]/64] = 1 << (g.cpus[g.cur] % 64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	g.hops++
}

// observe probes once and reports whether the core is quiet.
func (g *quietGate) observe() bool {
	t := probe()
	if t < g.best {
		g.best = t
	}
	return float64(t) <= quietSlack*float64(g.best)
}

// wait returns when a probe reads quiet or the allowance is used up. A nil
// gate does not wait.
func (g *quietGate) wait() {
	if g == nil || g.observe() {
		return
	}
	start := time.Now()
	for g.waited+time.Since(start) < g.allowance {
		g.hop()
		if g.observe() {
			break
		}
	}
	g.waited += time.Since(start)
}
