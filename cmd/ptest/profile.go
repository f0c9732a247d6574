package main

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// profileFlags are `ptest run` and `ptest suite`'s -cpuprofile and
// -memprofile: where to write a CPU profile of the whole command and a
// heap profile taken as it ends, both in the format `go tool pprof`
// reads.
type profileFlags struct{ cpu, mem *string }

func addProfileFlags(fs *flag.FlagSet) profileFlags {
	return profileFlags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile of the command to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file as the command ends"),
	}
}

// start begins the requested profiles. The returned stop ends the CPU
// profile and writes the heap profile; it must run exactly once.
func (p profileFlags) start() (stop func() error, err error) {
	var cpu *os.File
	if *p.cpu != "" {
		if cpu, err = os.Create(*p.cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if *p.mem == "" {
			return nil
		}
		f, err := os.Create(*p.mem)
		if err != nil {
			return err
		}
		runtime.GC() // profile the live heap as of the command's end
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
