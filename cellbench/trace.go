package main

import (
	"time"

	"repro/internal/coher"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/directory"
	"repro/internal/sim"
)

// layer names one of the repo's modules a reference passes through.
type layer uint8

const (
	lWorkload  layer = iota // gen.Next behind cpu.Stream
	lSim                    // the sim.Drive scheduler
	lCPU                    // cpu.Core.Step: the core and its private L1/L2
	lCore                   // the protocol engine behind cpu.Uncore (llc, noc, coher)
	lDirectory              // directory.Directory
	lHome                   // core.Home: LocalHome, or the socket home agent
	lStats                  // stats collection
	nLayers
)

var layerNames = [nLayers]string{"workload", "sim", "cpu", "core", "directory", "home", "stats"}

// Uncore operations, counted by the engine wrapper.
const (
	opRead = iota
	opWrite
	opUpgrade
	opEvict
	nOps
)

// counters is what the tracer accumulates. Time moves to the innermost
// open layer at every boundary crossing, so a nested call's time is
// counted once, in the callee's self time.
type counters struct {
	self   [nLayers]int64  // tracer clock ticks
	calls  [nLayers]uint64 // entries into the layer
	nested [nLayers]uint64 // entries into another layer while this one was innermost
	ops    [nOps]uint64
	// Directory outcomes: Store calls, Stores housed, victims returned.
	stores, housed, victims uint64
}

func (c counters) sub(o counters) counters {
	for l := range c.self {
		c.self[l] -= o.self[l]
		c.calls[l] -= o.calls[l]
		c.nested[l] -= o.nested[l]
	}
	for i := range c.ops {
		c.ops[i] -= o.ops[i]
	}
	c.stores -= o.stores
	c.housed -= o.housed
	c.victims -= o.victims
	return c
}

func (c *counters) add(o counters) {
	for l := range c.self {
		c.self[l] += o.self[l]
		c.calls[l] += o.calls[l]
		c.nested[l] += o.nested[l]
	}
	for i := range c.ops {
		c.ops[i] += o.ops[i]
	}
	c.stores += o.stores
	c.housed += o.housed
	c.victims += o.victims
}

// tracer keeps a stack of open layers. It holds aggregates only, no
// per-call records, so its memory does not grow with the run.
type tracer struct {
	counters
	epoch time.Time
	last  int64
	top   layer
	stack []layer
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// useTSC selects the tracer's clock: the time-stamp counter where it is
// invariant, else the monotonic clock in ns.
var useTSC = tscUsable()

func (t *tracer) now() int64 {
	if useTSC {
		return int64(rdtsc())
	}
	return int64(time.Since(t.epoch))
}

// begin opens root as the only layer; end closes it. Time between an
// end and the next begin belongs to no layer.
func (t *tracer) begin(root layer) {
	t.stack = t.stack[:0]
	t.top = root
	t.calls[root]++
	t.last = t.now()
}

func (t *tracer) end() {
	t.self[t.top] += t.now() - t.last
}

func (t *tracer) enter(l layer) {
	n := t.now()
	t.self[t.top] += n - t.last
	t.last = n
	t.nested[t.top]++
	t.stack = append(t.stack, t.top)
	t.top = l
	t.calls[l]++
}

func (t *tracer) exit() {
	n := t.now()
	t.self[t.top] += n - t.last
	t.last = n
	t.top = t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
}

// --- seam wrappers ----------------------------------------------------------

type timedStream struct {
	t *tracer
	s cpu.Stream
}

func (w timedStream) Next() (cpu.Access, bool) {
	w.t.enter(lWorkload)
	a, ok := w.s.Next()
	w.t.exit()
	return a, ok
}

// timedAgent times Step only; Now and Done stay in the scheduler's self
// time.
type timedAgent struct {
	t *tracer
	c *cpu.Core
}

func (w timedAgent) Now() sim.Cycle { return w.c.Now() }
func (w timedAgent) Done() bool     { return w.c.Done() }
func (w timedAgent) Step() {
	w.t.enter(lCPU)
	w.c.Step()
	w.t.exit()
}

type timedUncore struct {
	t *tracer
	u cpu.Uncore
}

func (w timedUncore) Read(at sim.Cycle, c coher.CoreID, addr coher.Addr, code bool) (sim.Cycle, coher.PrivState) {
	w.t.enter(lCore)
	w.t.ops[opRead]++
	done, st := w.u.Read(at, c, addr, code)
	w.t.exit()
	return done, st
}

func (w timedUncore) Write(at sim.Cycle, c coher.CoreID, addr coher.Addr) sim.Cycle {
	w.t.enter(lCore)
	w.t.ops[opWrite]++
	done := w.u.Write(at, c, addr)
	w.t.exit()
	return done
}

func (w timedUncore) Upgrade(at sim.Cycle, c coher.CoreID, addr coher.Addr) sim.Cycle {
	w.t.enter(lCore)
	w.t.ops[opUpgrade]++
	done := w.u.Upgrade(at, c, addr)
	w.t.exit()
	return done
}

func (w timedUncore) Evict(at sim.Cycle, c coher.CoreID, addr coher.Addr, state coher.PrivState) {
	w.t.enter(lCore)
	w.t.ops[opEvict]++
	w.u.Evict(at, c, addr, state)
	w.t.exit()
}

type timedHome struct {
	t *tracer
	h core.Home
}

func (w timedHome) FetchBlock(at sim.Cycle, s int, addr coher.Addr, exclusive bool) core.FetchResult {
	w.t.enter(lHome)
	r := w.h.FetchBlock(at, s, addr, exclusive)
	w.t.exit()
	return r
}

func (w timedHome) WriteBack(at sim.Cycle, s int, addr coher.Addr) {
	w.t.enter(lHome)
	w.h.WriteBack(at, s, addr)
	w.t.exit()
}

func (w timedHome) WBDE(at sim.Cycle, s int, addr coher.Addr, e coher.Entry) {
	w.t.enter(lHome)
	w.h.WBDE(at, s, addr, e)
	w.t.exit()
}

func (w timedHome) GetDE(at sim.Cycle, s int, addr coher.Addr) (coher.Entry, sim.Cycle, bool) {
	w.t.enter(lHome)
	e, done, ok := w.h.GetDE(at, s, addr)
	w.t.exit()
	return e, done, ok
}

func (w timedHome) PutDE(at sim.Cycle, s int, addr coher.Addr, e coher.Entry) {
	w.t.enter(lHome)
	w.h.PutDE(at, s, addr, e)
	w.t.exit()
}

func (w timedHome) SocketEvict(at sim.Cycle, s int, addr coher.Addr) bool {
	w.t.enter(lHome)
	r := w.h.SocketEvict(at, s, addr)
	w.t.exit()
	return r
}

func (w timedHome) Corrupted(addr coher.Addr) bool {
	w.t.enter(lHome)
	r := w.h.Corrupted(addr)
	w.t.exit()
	return r
}

func (w timedHome) Segment(s int, addr coher.Addr) (coher.Entry, bool) {
	w.t.enter(lHome)
	e, ok := w.h.Segment(s, addr)
	w.t.exit()
	return e, ok
}

func (w timedHome) AcquireExclusive(at sim.Cycle, s int, addr coher.Addr) sim.Cycle {
	w.t.enter(lHome)
	done := w.h.AcquireExclusive(at, s, addr)
	w.t.exit()
	return done
}

func (w timedHome) SharedElsewhere(s int, addr coher.Addr) bool {
	w.t.enter(lHome)
	r := w.h.SharedElsewhere(s, addr)
	w.t.exit()
	return r
}

// timedDir times the base directory.Directory contract.
type timedDir struct {
	t *tracer
	d directory.Directory
}

func (w *timedDir) Lookup(addr coher.Addr) (coher.Entry, bool) {
	w.t.enter(lDirectory)
	e, ok := w.d.Lookup(addr)
	w.t.exit()
	return e, ok
}

func (w *timedDir) Store(addr coher.Addr, e coher.Entry) ([]directory.Victim, bool) {
	w.t.enter(lDirectory)
	v, housed := w.d.Store(addr, e)
	w.t.stores++
	if housed {
		w.t.housed++
	}
	w.t.victims += uint64(len(v))
	w.t.exit()
	return v, housed
}

func (w *timedDir) Free(addr coher.Addr) {
	w.t.enter(lDirectory)
	w.d.Free(addr)
	w.t.exit()
}

func (w *timedDir) Touch(addr coher.Addr) {
	w.t.enter(lDirectory)
	w.d.Touch(addr)
	w.t.exit()
}

func (w *timedDir) Occupancy() (int, int) {
	w.t.enter(lDirectory)
	live, capacity := w.d.Occupancy()
	w.t.exit()
	return live, capacity
}

func (w *timedDir) Name() string { return w.d.Name() }

// timedStaterDir adds directory.Stater (NoDir's method set).
type timedStaterDir struct{ *timedDir }

func (w timedStaterDir) AppendState(buf []byte) []byte {
	return w.d.(directory.Stater).AppendState(buf)
}

// timedTraditionalDir has directory.Traditional's method set: Stater,
// core.ConflictDirectory (the phase-priority backend refuses a directory
// without it) and the Peak method stats collection probes for.
type timedTraditionalDir struct{ timedStaterDir }

func (w timedTraditionalDir) Peak() int {
	return w.d.(interface{ Peak() int }).Peak()
}

func (w timedTraditionalDir) SetFull(addr coher.Addr) bool {
	w.t.enter(lDirectory)
	r := w.d.(core.ConflictDirectory).SetFull(addr)
	w.t.exit()
	return r
}

func (w timedTraditionalDir) EvictVictim(addr coher.Addr) (directory.Victim, bool) {
	w.t.enter(lDirectory)
	v, ok := w.d.(core.ConflictDirectory).EvictVictim(addr)
	if ok {
		w.t.victims++
	}
	w.t.exit()
	return v, ok
}

// wrapDir returns a timed directory with exactly d's optional method
// set, so every type assertion the program makes on it answers as it
// would for d. The grids use only NoDir and Traditional organizations;
// any other method set is a benchmark bug.
func wrapDir(t *tracer, d directory.Directory) directory.Directory {
	_, stater := d.(directory.Stater)
	_, conflict := d.(core.ConflictDirectory)
	_, peak := d.(interface{ Peak() int })
	_, overflow := d.(interface{ PeakOverflow() int })
	base := &timedDir{t: t, d: d}
	switch {
	case stater && conflict && peak && !overflow:
		return timedTraditionalDir{timedStaterDir{base}}
	case stater && !conflict && !peak && !overflow:
		return timedStaterDir{base}
	}
	panic("cellbench: no transparent timing wrapper for directory " + d.Name())
}
