package core_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/backend"
	"repro/internal/coher"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/llc"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/workload"
)

// viewConfigs spans every backend, every DE policy, every LLC mode and
// every replacement policy on the tiny single-set system, where nearly
// every fill displaces a line and entries move between forms all the
// time.
func viewConfigs() map[string]core.SystemSpec {
	nodir := func() directory.Directory { return directory.NoDir{} }
	cfgs := map[string]core.SystemSpec{}
	repls := []llc.Repl{llc.LRU, llc.SpLRU, llc.DataLRU}
	i := 0
	for _, pol := range []core.DEPolicy{core.SpillAll, core.FPSS, core.FuseAll} {
		for _, mode := range []llc.Mode{llc.NonInclusive, llc.EPD, llc.Inclusive} {
			repl := repls[i%len(repls)]
			i++
			cfgs[fmt.Sprintf("zerodev-%v-%v-%v", pol, mode, repl)] = tinySpec(nodir, true, pol, repl, mode)
		}
	}
	// ZeroDEV over a one-set replacement-enabled directory: displaced
	// entries are re-housed in the LLC, an unpinned allocation.
	cfgs["zerodev-fpss-repldir"] = tinySpec(func() directory.Directory {
		return directory.MustTraditional(2, 2)
	}, true, core.FPSS, llc.DataLRU, llc.NonInclusive)
	sparse := tinySpec(func() directory.Directory { return directory.MustTraditional(2, 2) }, false, 0, llc.LRU, llc.NonInclusive)
	sparse.Backend = backend.SparseMESI
	cfgs["sparsemesi"] = sparse
	phase := sparse
	phase.Backend = backend.PhasePriority
	cfgs["phasepriority"] = phase
	dls := tinySpec(nodir, false, 0, llc.LRU, llc.Inclusive)
	dls.Backend = backend.DLS
	cfgs["dls"] = dls
	return cfgs
}

// TestThreadedViewsAreCurrent runs random op sequences on every
// configuration with the view-currency check installed: every LLC view
// a transaction threads through fills and DE housing, and every
// residency fact the victim scan reports, must equal what a fresh Probe
// returns at the point of use.
func TestThreadedViewsAreCurrent(t *testing.T) {
	var fault string
	core.SetViewFault(func(msg string) {
		if fault == "" {
			fault = msg
		}
	})
	defer core.SetViewFault(nil)

	rng := sim.NewRNG(0x5EED)
	addrs := []coher.Addr{0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47}
	depth, trials := 40, 400
	if testing.Short() {
		trials = 30
	}
	cfgs := viewConfigs()
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec := cfgs[name]
		t.Run(name, func(t *testing.T) {
			fault = ""
			for trial := 0; trial < trials; trial++ {
				sys, scripts := microSystem(spec)
				for i := 0; i < depth; i++ {
					c := rng.Intn(2)
					if a := addrs[rng.Intn(len(addrs))]; rng.Bool(0.4) {
						scripts[c].store(a)
					} else {
						scripts[c].load(a)
					}
					sys.Cores[c].Step()
					if fault != "" {
						t.Fatalf("trial %d step %d: %s", trial, i, fault)
					}
				}
				if err := sys.Engine.CheckInvariants(); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		})
	}
}

// TestThreadedViewsAreCurrentAcrossSockets repeats the check on a
// two-socket system, where forwarded requests fill and re-house entries
// at a remote socket outside any transaction pin.
func TestThreadedViewsAreCurrentAcrossSockets(t *testing.T) {
	var fault string
	core.SetViewFault(func(msg string) {
		if fault == "" {
			fault = msg
		}
	})
	defer core.SetViewFault(nil)

	pre := config.TableI(64)
	for _, pol := range []core.DEPolicy{core.SpillAll, core.FPSS, core.FuseAll} {
		spec := pre.ZeroDEV(0, pol, llc.DataLRU, llc.NonInclusive)
		streams := workload.Threads(workload.MustGet("canneal"), 2*spec.Cores, 1500, 64, 3)
		sys, err := socket.New(socket.DefaultParams(2, 64), spec, streams)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if fault != "" {
			t.Fatalf("%v: %s", pol, fault)
		}
		if err := sys.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if sys.Stats().SocketForwards == 0 {
			t.Fatalf("%v: no forwarded requests reached a remote socket", pol)
		}
	}
}
