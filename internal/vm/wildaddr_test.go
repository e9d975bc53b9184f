package vm

import (
	"fmt"
	"math"
	"testing"
)

// wildAddrs are guest addresses whose access must fail for an access of size
// bytes in memory of memLen bytes: the ones near MaxInt64 (where addr+size
// wraps negative), -1, and the first address whose access overruns the end.
func wildAddrs(memLen, size int64) []int64 {
	addrs := []int64{-1, memLen - size + 1}
	for a := int64(math.MaxInt64 - 7); ; a++ {
		addrs = append(addrs, a)
		if a == math.MaxInt64 {
			return addrs
		}
	}
}

// TestWildAddressFaults: every load and store, checked or not, from either
// thread, at an address whose end wraps or overruns memory stops the thread —
// StopError for the original thread, StopFault with one more signal for the
// speculating one — and never panics the host.
func TestWildAddressFaults(t *testing.T) {
	cfg := testCfg()
	memLen := cfg.MemSize + cfg.StackSize + cfg.SpecHeapSize
	ops := []Op{LDB, LDW, STB, STW, LDBS, LDWS, STBS, STWS}
	for _, op := range ops {
		size := int64(1)
		if op == LDW || op == STW || op == LDWS || op == STWS {
			size = 8
		}
		access := Instr{Op: op, Rd: 12, Rs1: 10, Rs2: 11}
		if op == STB || op == STW || op == STBS || op == STWS {
			access.Rd = 0
		}
		for _, addr := range wildAddrs(memLen, size) {
			for _, mode := range []Mode{Normal, Speculative} {
				name := fmt.Sprintf("%v/%d/mode=%d", op, addr, mode)
				text := []Instr{{Op: MOVI, Rd: 10, Imm: addr}, {Op: MOVI, Rd: 11, Imm: 7}, access, {Op: JMP, Imm: 3}}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s: host panic: %v", name, r)
						}
					}()
					var m *Machine
					var th *Thread
					if mode == Normal {
						var err error
						if m, err = NewMachine(prog(text), &scriptOS{}, cfg); err != nil {
							t.Fatal(err)
						}
						th = m.NewThread("orig", Normal)
					} else {
						m, th = makeSpecMachine(t, []Instr{{Op: NOP}}, text)
					}
					signals := th.Signals
					_, stop := m.Run(th, 100)
					switch {
					case mode == Normal && stop != StopError:
						t.Errorf("%s: stop %v, want %v", name, stop, StopError)
					case mode == Speculative && (stop != StopFault || th.Signals != signals+1):
						t.Errorf("%s: stop %v with %d signals, want %v with %d", name, stop, th.Signals, StopFault, signals+1)
					}
				}()
			}
		}
	}
}

// TestWildAddressHostPaths: the host-side paths into guest memory — WriteMem,
// WriteFrom, ReadCStr and Sbrk — reject a range that wraps or overruns memory
// with an error, before they touch memory or the source.
func TestWildAddressHostPaths(t *testing.T) {
	m, err := NewMachine(prog([]Instr{{Op: NOP}}), &scriptOS{}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	memLen := int64(len(m.Mem()))
	for _, th := range []*Thread{m.NewThread("orig", Normal), m.NewThread("spec", Speculative)} {
		for _, addr := range wildAddrs(memLen, 8) {
			if err := m.WriteMem(th, addr, make([]byte, 8)); err == nil {
				t.Errorf("%s: WriteMem at %d accepted", th.Name, addr)
			}
			var src rampSource
			if err := m.WriteFrom(th, addr, 8, &src, 0); err == nil || src.reads != 0 {
				t.Errorf("%s: WriteFrom at %d: err %v after %d source reads", th.Name, addr, err, src.reads)
			}
			if addr < memLen-8 || addr > memLen {
				if _, err := m.ReadCStr(th, addr, nil); err == nil {
					t.Errorf("%s: ReadCStr at %d accepted", th.Name, addr)
				}
			}
		}
		if got := m.Sbrk(th, math.MaxInt64-8); got != -1 {
			t.Errorf("%s: Sbrk of MaxInt64-8 = %d, want -1", th.Name, got)
		}
	}
}
