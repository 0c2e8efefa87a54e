package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/directory"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/stats"
)

// Cell phases, each a span in the trace.
const (
	phSetup = iota
	phRun
	phCollect
	nPhases
)

var phaseNames = [nPhases]string{"setup", "run", "collect"}

// cellResult is one simulated cell: its host cost, its correctness
// verdict, and the model's own counters.
type cellResult struct {
	name       string
	ns         [nPhases]int64
	allocBytes uint64
	allocs     uint64
	refs       uint64
	digest     [sha256.Size]byte
	err        error

	// Deterministic model counters, summed over sockets and cores.
	cpu    cpu.Stats
	engine core.Stats
	dram   dram.Stats
	socket socket.Stats

	// spans holds per-phase layer aggregates; traced runs only.
	spans [nPhases]counters
}

// system is what a cell needs from core.System and socket.System.
type system struct {
	engines   []*core.Engine
	cores     []*cpu.Core
	check     func() error
	collect   func(cycles sim.Cycle) any
	dram      func() dram.Stats
	socketOut func() socket.Stats
}

func newSystem(c cell, streams []cpu.Stream, spec core.SystemSpec) (*system, error) {
	if c.sockets == nil {
		s := core.NewSystem(spec, streams)
		return &system{
			engines:   []*core.Engine{s.Engine},
			cores:     s.Cores,
			check:     s.Engine.CheckInvariants,
			collect:   func(cy sim.Cycle) any { return stats.Collect(c.name, s, cy) },
			dram:      s.Home.DRAM().Stats,
			socketOut: func() socket.Stats { return socket.Stats{} },
		}, nil
	}
	s, err := socket.New(*c.sockets, spec, streams)
	if err != nil {
		return nil, err
	}
	out := &system{
		check:     s.CheckInvariants,
		collect:   func(cy sim.Cycle) any { return stats.CollectLean(c.name, s, cy) },
		dram:      s.DRAM().Stats,
		socketOut: s.Stats,
	}
	for _, sock := range s.Sockets {
		out.engines = append(out.engines, sock.Engine)
		out.cores = append(out.cores, sock.Cores...)
	}
	return out, nil
}

// runCell simulates c to completion. With t nil nothing is wrapped and
// the cell runs exactly as the harness runs it; otherwise every seam is
// wrapped and timed through t. A panic inside the program fails the
// cell instead of the benchmark.
func runCell(c cell, seed uint64, t *tracer) (r cellResult) {
	r.name = c.name
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("panic: %v", p)
		}
	}()
	var snap counters
	phase := func(ph int) {
		if t != nil {
			r.spans[ph] = t.counters.sub(snap)
			snap = t.counters
		}
	}
	if t != nil {
		snap = t.counters
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	// Set-up: stream construction plus system assembly, up to the first
	// Step. In a traced run the set-up span's root is core, the module
	// whose constructors assemble the system.
	t0 := time.Now()
	spec := c.spec
	var streams []cpu.Stream
	if t == nil {
		streams = c.streams.build(seed)
	} else {
		t.begin(lCore)
		t.enter(lWorkload)
		streams = c.streams.build(seed)
		t.exit()
		for i, s := range streams {
			streams[i] = timedStream{t, s}
		}
		dir := spec.Dir
		spec.Dir = func() directory.Directory {
			t.enter(lDirectory)
			d := dir()
			t.exit()
			return wrapDir(t, d)
		}
		if c.sockets == nil {
			spec.WrapHome = func(h core.Home) core.Home { return timedHome{t, h} }
		} else {
			p := *c.sockets
			p.WrapHome = func(_ int, h core.Home) core.Home { return timedHome{t, h} }
			c.sockets = &p
		}
	}
	sys, err := newSystem(c, streams, spec)
	if err != nil {
		r.err = err
		return r
	}
	agents := make([]sim.Clocked, len(sys.cores))
	for i, cp := range sys.cores {
		agents[i] = cp
	}
	if t != nil {
		// Core.Attach re-points a core at its engine through the timed
		// wrapper; cores are socket-major, as are engines.
		per := len(sys.cores) / len(sys.engines)
		for i, cp := range sys.cores {
			cp.Attach(timedUncore{t, sys.engines[i/per]})
			agents[i] = timedAgent{t, cp}
		}
		t.end()
	}
	t1 := time.Now()
	phase(phSetup)

	if t != nil {
		t.begin(lSim)
	}
	cycles, err := sim.Drive(agents, nil)
	if t != nil {
		t.end()
	}
	t2 := time.Now()
	phase(phRun)
	if err != nil {
		r.err = err
		return r
	}

	if t != nil {
		t.begin(lStats)
	}
	run := sys.collect(cycles)
	if t != nil {
		t.end()
	}
	t3 := time.Now()
	phase(phCollect)
	runtime.ReadMemStats(&after)

	r.ns = [nPhases]int64{int64(t1.Sub(t0)), int64(t2.Sub(t1)), int64(t3.Sub(t2))}
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.allocs = after.Mallocs - before.Mallocs
	r.digest = sha256.Sum256([]byte(fmt.Sprintf("%s|%+v", c.name, run)))
	for _, cp := range sys.cores {
		s := cp.Stats()
		r.cpu.Loads += s.Loads
		r.cpu.Stores += s.Stores
		r.cpu.Ifetches += s.Ifetches
		r.cpu.L1DMisses += s.L1DMisses
		r.cpu.L1IMisses += s.L1IMisses
		r.cpu.L2Misses += s.L2Misses
		r.cpu.InvalidationsReceived += s.InvalidationsReceived
	}
	r.refs = r.cpu.Loads + r.cpu.Stores + r.cpu.Ifetches
	for _, e := range sys.engines {
		r.engine.Add(e.Stats())
	}
	r.dram = sys.dram()
	r.socket = sys.socketOut()
	r.err = checkCell(sys, r)
	return r
}

// checkCell is the per-cell correctness check: the engine (or
// socket-system) invariant checker, zero DEVs on every backend whose
// backend.Info claims it, and a run that retired references.
func checkCell(sys *system, r cellResult) error {
	var errs []error
	if err := sys.check(); err != nil {
		errs = append(errs, fmt.Errorf("invariants: %w", err))
	}
	id := sys.engines[0].Protocol().Backend()
	if backend.MustGet(id).ClaimsZeroDEV && r.engine.DEVs != 0 {
		errs = append(errs, fmt.Errorf("%d DEVs on backend %s, which claims zero", r.engine.DEVs, id))
	}
	if r.refs == 0 {
		errs = append(errs, errors.New("no references retired"))
	}
	return errors.Join(errs...)
}
