package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"runtime"
	"runtime/pprof"
)

// profFlags is the shared profiling surface of the long-running
// subcommands (run, audit, check). The subcommands return exit
// codes instead of calling os.Exit precisely so the deferred stop can
// flush these profiles on every path.
type profFlags struct {
	cpu  string
	mem  string
	addr string
}

// addProfFlags registers -cpuprofile, -memprofile, and -pprof-http on
// fs and returns the destination struct to start() after parsing.
func addProfFlags(fs *flag.FlagSet) *profFlags {
	p := &profFlags{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to this file (inspect with `go tool pprof`)")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile to this file at exit")
	fs.StringVar(&p.addr, "pprof-http", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live inspection")
	return p
}

// start begins the requested profiling. The returned stop function is
// always non-nil and must run before process exit: it stops the CPU
// profile and writes the allocation profile. The pprof HTTP server, if
// any, lives for the remainder of the process.
func (p *profFlags) start() (stop func(), err error) {
	stop = func() {}
	var cpuFile *os.File
	if p.cpu != "" {
		cpuFile, err = os.Create(p.cpu)
		if err != nil {
			return stop, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return stop, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if p.addr != "" {
		ln := p.addr
		go func() {
			if err := http.ListenAndServe(ln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof-http: %v\n", err)
			}
		}()
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if p.mem != "" {
			f, err := os.Create(p.mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize recent frees so the profile reflects live data accurately
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			}
		}
	}, nil
}
