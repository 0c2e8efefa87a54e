package socket

import (
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/llc"
	"repro/internal/workload"
)

// newBareSystem builds a system without running it, for directory-cache
// unit tests.
func newBareSystem(t *testing.T, backing Backing, dirEntries int) *System {
	t.Helper()
	pre := config.TableI(32)
	spec := pre.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)
	p := DefaultParams(2, dirEntries)
	p.Backing = backing
	streams := make([]cpu.Stream, 2*spec.Cores)
	for i := range streams {
		streams[i] = workload.Threads(workload.MustGet("swaptions"), 1, 0, 32, 1)[0]
	}
	sys, err := New(p, spec, streams)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func sockOwned(s int) coher.SocketEntry {
	return coher.SocketEntry{State: coher.SockOwned, Owner: uint8(s)}
}

func TestDirCacheMemoryBackupSurvivesEviction(t *testing.T) {
	// 8 entries, 8 ways: a single set. The ninth insert evicts silently;
	// the backup still answers.
	sys := newBareSystem(t, MemoryBackup, 8)
	for i := 0; i < 9; i++ {
		sys.storeSocketEntry(0, coher.Addr(i), sockOwned(i%2))
	}
	for i := 0; i < 9; i++ {
		e, _ := sys.lookupSocketEntry(0, coher.Addr(i))
		if e.State != coher.SockOwned || int(e.Owner) != i%2 {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	if sys.Stats().DirCacheMisses == 0 {
		t.Fatal("expected a directory cache miss after eviction")
	}
}

func TestDirCacheDirEvictBitRoundTrip(t *testing.T) {
	sys := newBareSystem(t, DirEvictBit, 8)
	for i := 0; i < 9; i++ {
		sys.storeSocketEntry(0, coher.Addr(i), sockOwned(i%2))
	}
	// One entry was evicted into its memory block's partition.
	bitSet := 0
	for i := 0; i < 9; i++ {
		if _, ok := sys.mem.DirEvict(coher.Addr(i)); ok {
			bitSet++
		}
	}
	if bitSet != 1 {
		t.Fatalf("DirEvict bits set = %d, want 1", bitSet)
	}
	// Lookups recover every entry, clearing the bit on refill.
	for i := 0; i < 9; i++ {
		e, _ := sys.lookupSocketEntry(0, coher.Addr(i))
		if e.State != coher.SockOwned || int(e.Owner) != i%2 {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	if sys.Stats().DirEvictBitHits == 0 {
		t.Fatal("DirEvict-bit path never taken")
	}
}

func TestDirCacheDeadStoreClears(t *testing.T) {
	for _, backing := range []Backing{MemoryBackup, DirEvictBit} {
		sys := newBareSystem(t, backing, 16)
		sys.storeSocketEntry(0, 5, sockOwned(1))
		sys.storeSocketEntry(0, 5, coher.SocketEntry{})
		if e := sys.peekSocketEntry(5); e.Live() {
			t.Fatalf("backing %d: dead store left %+v", backing, e)
		}
	}
}

func TestDirCacheOwnedEvictionPriority(t *testing.T) {
	// §III-D5: owned entries are preferred eviction victims, keeping the
	// shared (read-critical) ones cached.
	sys := newBareSystem(t, DirEvictBit, 8)
	shared := coher.SocketEntry{State: coher.SockShared}
	shared.Sharers.Add(0)
	shared.Sharers.Add(1)
	for i := 0; i < 7; i++ {
		sys.storeSocketEntry(0, coher.Addr(i), shared)
	}
	sys.storeSocketEntry(0, 7, sockOwned(0)) // the one owned entry
	sys.storeSocketEntry(0, 8, shared)       // forces an eviction
	if _, ok := sys.mem.DirEvict(7); !ok {
		t.Fatal("the owned entry should have been victimized first")
	}
}

func TestNewValidatesGeometry(t *testing.T) {
	pre := config.TableI(32)
	spec := pre.Baseline(1, llc.NonInclusive)
	if _, err := New(DefaultParams(2, 24), spec, nil); err == nil {
		t.Fatal("stream-count mismatch accepted")
	}
	p := DefaultParams(2, 24) // 3 sets: not a power of two
	streams := make([]cpu.Stream, 2*spec.Cores)
	for i := range streams {
		streams[i] = workload.Threads(workload.MustGet("swaptions"), 1, 0, 32, 1)[0]
	}
	if _, err := New(p, spec, streams); err == nil {
		t.Fatal("non-power-of-two directory cache accepted")
	}
}

// TestNewValidatesSocketCount pins the socket-count bound: a socket
// sharer vector is one 64-bit coher.SocketSet, so a 65th socket would be
// silently dropped from it and the run would later fail on a block with
// no holder sockets. New must refuse such counts by name, and the
// largest legal system must assemble and run clean.
func TestNewValidatesSocketCount(t *testing.T) {
	pre := config.TableI(32)
	spec := pre.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)
	spec.Cores = 1
	for _, tc := range []struct {
		sockets int
		ok      bool
	}{{0, false}, {1, true}, {64, true}, {65, false}} {
		streams := workload.Threads(workload.MustGet("canneal"), tc.sockets, 200, 32, 1)
		sys, err := New(DefaultParams(tc.sockets, 2048), spec, streams)
		if !tc.ok {
			if !errors.Is(err, ErrSocketCount) {
				t.Fatalf("%d sockets: err = %v, want ErrSocketCount", tc.sockets, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%d sockets: %v", tc.sockets, err)
		}
		sys.Run()
		if err := sys.CheckInvariants(); err != nil {
			t.Fatalf("%d sockets: invariants: %v", tc.sockets, err)
		}
	}
}

// TestNewValidatesWays pins the associativity bound for both caches the
// socket layer builds: the directory cache and each socket's LLC accept
// 64 ways and refuse 65 with cache.ErrTooManyWays.
func TestNewValidatesWays(t *testing.T) {
	pre := config.TableI(32)
	for _, tc := range []struct {
		ways int
		ok   bool
	}{{64, true}, {65, false}} {
		spec := pre.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)
		streams := workload.Threads(workload.MustGet("swaptions"), 2*spec.Cores, 10, 32, 1)
		p := DefaultParams(2, 4*tc.ways)
		p.DirCacheWays = tc.ways
		if _, err := New(p, spec, streams); tc.ok != (err == nil) || (!tc.ok && !errors.Is(err, cache.ErrTooManyWays)) {
			t.Errorf("%d-way directory cache: err = %v", tc.ways, err)
		}
		spec.LLCSets, spec.LLCWays = 4, tc.ways
		if _, err := New(DefaultParams(2, 64), spec, streams); tc.ok != (err == nil) || (!tc.ok && !errors.Is(err, cache.ErrTooManyWays)) {
			t.Errorf("%d-way LLC: err = %v", tc.ways, err)
		}
	}
}
