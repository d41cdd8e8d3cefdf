package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles is the -cpuprofile/-memprofile flag pair the binaries share:
// where this run's wall-clock milliseconds and allocations went, one
// flag away (go tool pprof).
type Profiles struct{ cpu, mem string }

// ProfileFlags registers -cpuprofile and -memprofile on fs.
func ProfileFlags(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile of the run to this file (go tool pprof -sample_index=alloc_objects)")
	return p
}

// Start begins the CPU profile, if one was asked for, and returns the
// function that finishes it and writes the allocation profile. Defer
// it: a path that leaves through os.Exit writes neither. Errors while
// flushing go to standard error.
func (p *Profiles) Start() (stop func(), err error) {
	var cpu *os.File
	if p.cpu != "" {
		if cpu, err = os.Create(p.cpu); err == nil {
			err = pprof.StartCPUProfile(cpu)
		}
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			}
		}
		if p.mem != "" {
			runtime.GC() // flush the last cycle's allocations into the profile
			if err := writeAllocProfile(p.mem); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}, nil
}

func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
