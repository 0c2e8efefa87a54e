package main

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/llc"
	"repro/internal/socket"
	"repro/internal/workload"
)

// Every grid runs at the sizes `zerodev bench` uses for its figure
// entries: capacities and footprints divided by 32, 5000 references per
// core (the scale ladder divides that budget down as cores grow, as
// figscale does).
const (
	benchScale    = 32
	benchAccesses = 5000
)

// streamSet names one set of reference streams. Cells whose streamSet
// keys are equal replay identical inputs; the grid rebuilds the streams
// for every cell, as the harness does.
type streamSet struct {
	app      string
	rate     bool // rate mode (one copy per core) instead of threads
	cores    int
	accesses int
}

func (s streamSet) build(seed uint64) []cpu.Stream {
	prof := workload.MustGet(s.app)
	if s.rate {
		return workload.Rate(prof, s.cores, s.accesses, benchScale, seed)
	}
	return workload.Threads(prof, s.cores, s.accesses, benchScale, seed)
}

// cell is one system simulated to completion: a single-socket
// core.System when sockets is nil, else a socket.System.
type cell struct {
	name    string
	streams streamSet
	spec    core.SystemSpec
	sockets *socket.Params
}

// grid is one benchmark workload.
type grid struct {
	name  string
	cells []cell
}

var workloads = []string{"fig18-sweep", "backend-writes", "scale-ladder"}

func buildGrid(name string) (grid, error) {
	switch name {
	case "fig18-sweep":
		return fig18Sweep(), nil
	case "backend-writes":
		return backendWrites()
	case "scale-ladder":
		return scaleLadder()
	}
	return grid{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

// fig18Apps is the harness's quick application set over fig18's suites;
// the CPU2017 entries run in rate mode.
var fig18Apps = []struct {
	name string
	rate bool
}{
	{"canneal", false}, {"freqmine", false}, {"vips", false},
	{"lu_ncb", false}, {"ocean_cp", false},
	{"330.art", false}, {"312.swim", false},
	{"FFTW", false},
	{"xalancbmk", true}, {"gcc.ppO2", true}, {"mcf", true},
}

// fig18Sweep is Fig. 18's grid: the baseline 8 MB 1x plus ZeroDEV NoDir
// FPSS under spLRU and dataLRU at 8 MB and 4 MB, and a 4 MB baseline.
// Read-mostly: the engine's work is LLC DE housing and victim choice,
// and the NoDir cells leave the directory idle.
func fig18Sweep() grid {
	pre8 := config.TableI(benchScale)
	pre4 := pre8
	pre4.LLCBytes /= 2
	specs := []struct {
		name string
		spec core.SystemSpec
	}{
		{"base", pre8.Baseline(1, llc.NonInclusive)},
		{"sp8MB", pre8.ZeroDEV(0, core.FPSS, llc.SpLRU, llc.NonInclusive)},
		{"data8MB", pre8.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)},
		{"Base4MB", pre4.Baseline(1, llc.NonInclusive)},
		{"sp4MB", pre4.ZeroDEV(0, core.FPSS, llc.SpLRU, llc.NonInclusive)},
		{"data4MB", pre4.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)},
	}
	g := grid{name: "fig18-sweep"}
	for _, app := range fig18Apps {
		ss := streamSet{app: app.name, rate: app.rate, cores: pre8.Cores, accesses: benchAccesses}
		for _, s := range specs {
			g.cells = append(g.cells, cell{name: app.name + "/" + s.name, streams: ss, spec: s.spec})
		}
	}
	return g
}

// backendWriteApps are write- and migratory-heavy profiles: upgrades,
// demand invalidations, owner forwards, DEVs, NACK retries and DLS
// fills keep the engine and the directory busy.
var backendWriteApps = []string{"freqmine", "dedup", "radix", "water_nsquared", "radiosity", "TPC-C"}

func backendWrites() (grid, error) {
	pre := config.TableI(benchScale)
	g := grid{name: "backend-writes"}
	for _, app := range backendWriteApps {
		ss := streamSet{app: app, cores: pre.Cores, accesses: benchAccesses}
		for _, b := range backend.All() {
			spec, err := pre.ForBackend(b.ID, 1.0/8)
			if err != nil {
				return grid{}, err
			}
			g.cells = append(g.cells, cell{name: app + "/" + string(b.ID), streams: ss, spec: spec})
		}
	}
	return g, nil
}

// scaleLadder runs canneal threads under ZeroDEV NoDir on every
// config.ScaleLadder rung, configured as figscale configures its cells:
// the only traffic that reaches the socket home agent, hierarchical
// home groups and sharer sets wider than 128 cores.
func scaleLadder() (grid, error) {
	g := grid{name: "scale-ladder"}
	for _, org := range config.ScaleLadder(benchScale) {
		spec, err := org.Preset.ForBackend(backend.ZeroDEV, 0)
		if err != nil {
			return grid{}, err
		}
		spec.CPU.StatInterval = 1000
		p := socket.DefaultParams(org.Sockets, 65536/benchScale*8)
		p.HomeGroups = org.HomeGroups
		p.IntraGroupCycles = 40
		accesses := benchAccesses * 64 / org.TotalCores()
		if accesses < 200 {
			accesses = 200
		}
		ss := streamSet{app: "canneal", cores: org.TotalCores(), accesses: accesses}
		g.cells = append(g.cells, cell{name: org.Name, streams: ss, spec: spec, sockets: &p})
	}
	return g, nil
}

// streamReuse is cells per distinct stream set: how often a grid replays
// the same inputs, the property a stream-synthesis cache depends on.
func (g grid) streamReuse() float64 {
	distinct := map[streamSet]bool{}
	for _, c := range g.cells {
		distinct[c.streams] = true
	}
	return float64(len(g.cells)) / float64(len(distinct))
}

func (g grid) maxCores() int {
	n := 0
	for _, c := range g.cells {
		n = max(n, c.streams.cores)
	}
	return n
}
