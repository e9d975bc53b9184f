// Package prof is the -cpuprofile/-memprofile plumbing the commands share:
// host-side pprof output for whoever is measuring what a run costs us, as
// opposed to internal/obs, which records what it costs the simulated machine.
package prof

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuPath and returns stop, which ends it
// and writes a heap profile (allocations included) to memPath. An empty path
// skips that profile. Both files are created here, so a bad path fails
// before the work being profiled starts.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	cpu, err := create(cpuPath)
	if err != nil {
		return nil, err
	}
	mem, err := create(memPath)
	if err == nil && cpu != nil {
		err = pprof.StartCPUProfile(cpu)
	}
	if err != nil {
		cpu.Close() // Close on a nil *os.File is a harmless error
		mem.Close()
		return nil, err
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if mem == nil {
			return nil
		}
		runtime.GC() // a heap profile is as of the last completed collection
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return err
		}
		return mem.Close()
	}, nil
}

// create opens path for writing; no path is no file.
func create(path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	return os.Create(path)
}
