package core_test

import (
	"testing"

	"repro/internal/coher"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/llc"
	"repro/internal/sim"
)

// Engine layer microbenchmarks: one sub-benchmark per transaction
// class, each timing Engine.Read, Write or Evict on its own. The
// private hierarchy is replaced by fakeCores, a flat per-core state
// table, so a benchmark measures the uncore (directory, LLC probe,
// victim choice, DE housing, home memory) and nothing of cpu.Core.
//
// Every class keeps a batch of addresses in its pre-transaction state:
// the timed loop runs one transaction per address, then an untimed
// restore step returns the batch to the pre-state. The system is
// ZeroDEV FPSS with dataLRU and no sparse directory, the fig18 cells'
// configuration, at 1/8 of Table I (a 1 MB, 16384-line LLC).

// benchBatch is the number of transactions between untimed restores.
const benchBatch = 512

// fakeCores is the private-cache state of every core for addresses
// 0..len-1, indexed [core][addr].
type fakeCores [][]coher.PrivState

type fakePort struct {
	f *fakeCores
	c int
}

func (p fakePort) HasBlock(a coher.Addr) (coher.PrivState, bool) {
	s := (*p.f)[p.c][a]
	return s, s != coher.PrivInvalid
}

func (p fakePort) Invalidate(a coher.Addr) coher.PrivState {
	s := (*p.f)[p.c][a]
	(*p.f)[p.c][a] = coher.PrivInvalid
	return s
}

func (p fakePort) Downgrade(a coher.Addr) coher.PrivState {
	s := (*p.f)[p.c][a]
	if s == coher.PrivModified || s == coher.PrivExclusive {
		(*p.f)[p.c][a] = coher.PrivShared
	}
	return s
}

// ForEachBlock lets CheckInvariants audit the fake hierarchy.
func (p fakePort) ForEachBlock(fn func(coher.Addr, coher.PrivState)) {
	for a, s := range (*p.f)[p.c] {
		if s != coher.PrivInvalid {
			fn(coher.Addr(a), s)
		}
	}
}

type noStream struct{}

func (noStream) Next() (cpu.Access, bool) { return cpu.Access{}, false }

// engBench drives one engine through fake cores, advancing simulated
// time by a fixed step per transaction.
type engBench struct {
	eng   *core.Engine
	home  *core.LocalHome
	cores fakeCores
	t     sim.Cycle
	lines int // LLC capacity in lines
}

func newEngBench() *engBench {
	spec := config.TableI(8).ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)
	streams := make([]cpu.Stream, spec.Cores)
	for i := range streams {
		streams[i] = noStream{}
	}
	sys := core.NewSystem(spec, streams)
	b := &engBench{eng: sys.Engine, home: sys.Home, lines: sys.Engine.LLC().Blocks()}
	b.cores = make(fakeCores, spec.Cores)
	ports := make([]core.CorePort, spec.Cores)
	for c := range b.cores {
		b.cores[c] = make([]coher.PrivState, 4*b.lines)
		ports[c] = fakePort{&b.cores, c}
	}
	b.eng.AttachCores(ports)
	return b
}

func (b *engBench) tick() sim.Cycle { b.t += 200; return b.t }

func (b *engBench) read(c int, a coher.Addr) {
	_, g := b.eng.Read(b.tick(), coher.CoreID(c), a, false)
	b.cores[c][a] = g
}

func (b *engBench) write(c int, a coher.Addr) {
	b.eng.Write(b.tick(), coher.CoreID(c), a)
	b.cores[c][a] = coher.PrivModified
}

func (b *engBench) upgrade(c int, a coher.Addr) {
	b.eng.Upgrade(b.tick(), coher.CoreID(c), a)
	b.cores[c][a] = coher.PrivModified
}

func (b *engBench) evict(c int, a coher.Addr) {
	b.eng.Evict(b.tick(), coher.CoreID(c), a, b.cores[c][a])
	b.cores[c][a] = coher.PrivInvalid
}

// runBatched times op over b.N transactions in batches of benchBatch,
// calling restore(lo, hi) untimed after each batch.
func runBatched(b *testing.B, op func(i int), restore func(lo, hi int)) {
	b.ReportAllocs()
	b.ResetTimer()
	for lo := 0; lo < b.N; lo += benchBatch {
		hi := min(lo+benchBatch, b.N)
		for i := lo; i < hi; i++ {
			op(i)
		}
		b.StopTimer()
		restore(lo, hi)
		b.StartTimer()
	}
}

// A cycle machine walks addresses A_k = k mod 4L (L = LLC lines) so
// every access misses the socket, and pre-fills one lap so the LLC is
// full: the fill of A_k displaces the line of A_{k-L}.
func (b *engBench) cycleAddr(k int) coher.Addr { return coher.Addr(k % (4 * b.lines)) }

// engineClass is one transaction class: setup builds the pre-state
// of the first batch, op runs timed transaction i, restore returns
// transactions lo..hi-1 to the pre-state untimed, and took reports
// from the engine counters before and after n timed transactions that
// every one took the class's path.
type engineClass struct {
	op, class string
	setup     func(e *engBench)
	run       func(e *engBench, i int)
	restore   func(e *engBench, lo, hi int)
	took      func(b, a *core.Stats, n uint64) bool
}

func batchAddr(i int) coher.Addr { return coher.Addr(i % benchBatch) }

// residentClean leaves the batch's blocks as clean LLC data lines with
// no entry and no private copy.
func residentClean(e *engBench) {
	for i := 0; i < benchBatch; i++ {
		e.read(0, batchAddr(i))
		e.evict(0, batchAddr(i))
	}
}

// fullOfData pre-fills one lap of the cycle machine as clean data.
func fullOfData(e *engBench) {
	for k := 0; k < e.lines; k++ {
		e.read(0, e.cycleAddr(k))
		e.evict(0, e.cycleAddr(k))
	}
}

func evictCycle(e *engBench, lo, hi int) {
	for i := lo; i < hi; i++ {
		e.evict(0, e.cycleAddr(e.lines+i))
	}
}

func evictBatch(c int) func(e *engBench, lo, hi int) {
	return func(e *engBench, lo, hi int) {
		for i := lo; i < hi; i++ {
			e.evict(c, batchAddr(i))
		}
	}
}

var engineClasses = []engineClass{
	{
		// Block resident as a clean data line with no entry (case iii):
		// granted E, the entry fuses.
		op: "Read", class: "llc-hit",
		setup:   residentClean,
		run:     func(e *engBench, i int) { e.read(0, batchAddr(i)) },
		restore: evictBatch(0),
		took:    func(b, a *core.Stats, n uint64) bool { return a.NReadLLCHit-b.NReadLLCHit == n },
	},
	{
		// Block owned in M by core 1 (fused): three-hop forward, the
		// dirty data updates the LLC line and the entry spills as S.
		op: "Read", class: "forward",
		setup: func(e *engBench) {
			for i := 0; i < benchBatch; i++ {
				e.write(1, batchAddr(i))
			}
		},
		run: func(e *engBench, i int) { e.read(0, batchAddr(i)) },
		restore: func(e *engBench, lo, hi int) {
			for i := lo; i < hi; i++ {
				e.evict(0, batchAddr(i))
				e.upgrade(1, batchAddr(i))
			}
		},
		took: func(b, a *core.Stats, n uint64) bool { return a.NReadForward-b.NReadForward == n },
	},
	{
		// Socket miss whose fill displaces a clean data line.
		op: "Read", class: "memory",
		setup:   fullOfData,
		run:     func(e *engBench, i int) { e.read(0, e.cycleAddr(e.lines+i)) },
		restore: evictCycle,
		took: func(b, a *core.Stats, n uint64) bool {
			return a.NReadMemory-b.NReadMemory == n && a.DEEvictionsToMemory == b.DEEvictionsToMemory
		},
	},
	{
		// Socket miss whose fill displaces a fused line: the live entry
		// leaves by WB_DE into the block's home memory.
		op: "Read", class: "wbde",
		setup: func(e *engBench) {
			for k := 0; k < e.lines; k++ {
				e.read(0, e.cycleAddr(k))
			}
		},
		run:     func(e *engBench, i int) { e.read(0, e.cycleAddr(e.lines+i)) },
		restore: drainHomeDEs,
		took: func(b, a *core.Stats, n uint64) bool {
			return a.NReadMemory-b.NReadMemory == n && a.DEEvictionsToMemory-b.DEEvictionsToMemory == n
		},
	},
	{
		// Block owned in E by core 1 whose entry lives in the corrupted
		// home block: the socket miss recovers the entry and forwards.
		op: "Read", class: "corrupted-fetch",
		setup: func(e *engBench) { homeHoused(e, 0, benchBatch) },
		run:   func(e *engBench, i int) { e.read(0, batchAddr(i)) },
		restore: func(e *engBench, lo, hi int) {
			for i := lo; i < hi; i++ {
				e.evict(0, batchAddr(i))
				e.evict(1, batchAddr(i))
			}
			homeHoused(e, lo, hi)
		},
		took: func(b, a *core.Stats, n uint64) bool { return a.CorruptedFetches-b.CorruptedFetches == n },
	},
	{
		op: "Write", class: "llc-hit",
		setup:   residentClean,
		run:     func(e *engBench, i int) { e.write(0, batchAddr(i)) },
		restore: evictBatch(0),
		took:    func(b, a *core.Stats, n uint64) bool { return a.LLCDataHits-b.LLCDataHits == n },
	},
	{
		// Ownership moves from core 1 to core 0, and back untimed.
		op: "Write", class: "forward",
		setup: func(e *engBench) {
			for i := 0; i < benchBatch; i++ {
				e.write(1, batchAddr(i))
			}
		},
		run: func(e *engBench, i int) { e.write(0, batchAddr(i)) },
		restore: func(e *engBench, lo, hi int) {
			for i := lo; i < hi; i++ {
				e.write(1, batchAddr(i))
			}
		},
		took: func(b, a *core.Stats, n uint64) bool { return a.Forwards3Hop-b.Forwards3Hop == n },
	},
	{
		op: "Write", class: "memory",
		setup:   fullOfData,
		run:     func(e *engBench, i int) { e.write(0, e.cycleAddr(e.lines+i)) },
		restore: evictCycle,
		took:    func(b, a *core.Stats, n uint64) bool { return a.LLCMisses-b.LLCMisses == n },
	},
	{
		// The only holder of a fused E block leaves: the line unfuses.
		op: "Evict", class: "put-e",
		setup: func(e *engBench) {
			for i := 0; i < benchBatch; i++ {
				e.read(0, batchAddr(i))
			}
		},
		run: func(e *engBench, i int) { e.evict(0, batchAddr(i)) },
		restore: func(e *engBench, lo, hi int) {
			for i := lo; i < hi; i++ {
				e.read(0, batchAddr(i))
			}
		},
		took: func(b, a *core.Stats, n uint64) bool { return a.DEFreedInLLC-b.DEFreedInLLC == n },
	},
	{
		// Eviction notice whose entry lives in home memory: GET_DE, then
		// the last-copy retrieval restores the block.
		op: "Evict", class: "get-de",
		setup:   func(e *engBench) { homeHoused(e, 0, benchBatch) },
		run:     func(e *engBench, i int) { e.evict(1, batchAddr(i)) },
		restore: func(e *engBench, lo, hi int) { homeHoused(e, lo, hi) },
		took:    func(b, a *core.Stats, n uint64) bool { return a.GetDEFlows-b.GetDEFlows == n },
	},
}

// homeHoused puts the batch addresses of transactions lo..hi-1 in the state "owned in E by core
// 1, entry written back to the block's home memory, no LLC line".
func homeHoused(e *engBench, lo, hi int) {
	for i := lo; i < hi; i++ {
		e.read(1, batchAddr(i))
		if !e.eng.ForceDEWriteback(e.tick(), batchAddr(i)) {
			panic("engine bench: no LLC-housed entry to write back")
		}
	}
}

// drainHomeDEs sends the GET_DE eviction for every block of the last
// lap whose entry the timed fills of transactions lo..hi-1 wrote back
// to home memory, so the next lap finds those blocks clean.
func drainHomeDEs(e *engBench, lo, hi int) {
	for k := lo; k < hi+e.lines; k++ {
		a := e.cycleAddr(k)
		if _, live := e.home.Segment(0, a); live {
			e.evict(0, a)
		}
	}
}

func benchEngine(b *testing.B, op string) {
	for _, c := range engineClasses {
		if c.op != op {
			continue
		}
		b.Run(c.class, func(b *testing.B) {
			e := newEngBench()
			c.setup(e)
			runBatched(b, func(i int) { c.run(e, i) }, func(lo, hi int) { c.restore(e, lo, hi) })
		})
	}
}

func BenchmarkEngineRead(b *testing.B)  { benchEngine(b, "Read") }
func BenchmarkEngineWrite(b *testing.B) { benchEngine(b, "Write") }
func BenchmarkEngineEvict(b *testing.B) { benchEngine(b, "Evict") }

// TestEngineBenchClasses drives every class through more than one lap
// of the cycle machine and checks that each timed transaction took the
// path its class names, so the benchmarks keep measuring what they
// claim as the protocol evolves.
func TestEngineBenchClasses(t *testing.T) {
	for _, c := range engineClasses {
		t.Run(c.op+"/"+c.class, func(t *testing.T) {
			e := newEngBench()
			c.setup(e)
			n := 4*e.lines + 2*benchBatch
			if testing.Short() {
				n = 2 * benchBatch
			}
			for lo := 0; lo < n; lo += benchBatch {
				before := *e.eng.Stats()
				for i := lo; i < lo+benchBatch; i++ {
					c.run(e, i)
				}
				if !c.took(&before, e.eng.Stats(), benchBatch) {
					t.Fatalf("batch at %d: a transaction left the class path", lo)
				}
				c.restore(e, lo, lo+benchBatch)
			}
			if err := e.eng.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
