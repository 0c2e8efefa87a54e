package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeometryFor(t *testing.T) {
	g, err := GeometryFor(32<<10, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if g.Sets != 64 || g.Ways != 8 || g.Blocks() != 512 {
		t.Fatalf("geometry = %+v", g)
	}
	bad := [][3]int{
		{0, 8, 64},       // zero capacity
		{100, 8, 64},     // not a multiple of line size
		{3 << 10, 8, 64}, // 48 blocks not divisible by 8... (it is: 6 sets, not pow2)
		{-1, 8, 64},
	}
	for _, b := range bad {
		if _, err := GeometryFor(b[0], b[1], b[2]); err == nil {
			t.Fatalf("GeometryFor(%v) accepted", b)
		}
	}
}

// TestGeometryWaysLimit pins the associativity bound: victim selection
// takes its skip set as one 64-bit mask, so 64 ways is the widest
// geometry and a 65th way is refused by name, not silently ignored.
func TestGeometryWaysLimit(t *testing.T) {
	for _, tc := range []struct {
		ways int
		ok   bool
	}{{64, true}, {65, false}} {
		_, err := GeometryFor(tc.ways*64*4, tc.ways, 64)
		if (err == nil) != tc.ok || (!tc.ok && !errors.Is(err, ErrTooManyWays)) {
			t.Errorf("GeometryFor with %d ways: err = %v", tc.ways, err)
		}
		g := Geometry{Sets: 4, Ways: tc.ways}
		if err := g.Validate(); (err == nil) != tc.ok || (!tc.ok && !errors.Is(err, ErrTooManyWays)) {
			t.Errorf("Validate with %d ways: err = %v", tc.ways, err)
		}
		func() {
			defer func() {
				r := recover()
				err, _ := r.(error)
				if (r == nil) != tc.ok || (!tc.ok && !errors.Is(err, ErrTooManyWays)) {
					t.Errorf("New with %d ways: panic = %v", tc.ways, r)
				}
			}()
			a := New[int](g, LRU)
			for w := 0; w < tc.ways; w++ {
				a.Insert(0, w, uint64(w)<<2, w)
			}
			a.Touch(0, 0)
			if v := a.Victim(0); v != 1 {
				t.Errorf("64-way victim = way %d, want 1", v)
			}
			if v, _ := a.VictimExcept(0, ^uint64(0)>>1); v != 63 {
				t.Errorf("64-way victim skipping ways 0..62 = way %d, want 63", v)
			}
		}()
	}
}

func TestLRUOrder(t *testing.T) {
	a := New[int](Geometry{Sets: 1, Ways: 4}, LRU)
	for i := 0; i < 4; i++ {
		way, free := a.FreeWay(0)
		if !free {
			t.Fatal("expected a free way")
		}
		a.Insert(0, way, uint64(i), i)
	}
	if _, free := a.FreeWay(0); free {
		t.Fatal("set should be full")
	}
	// Touch block 0 so block 1 becomes LRU.
	_, w0, ok := a.Lookup(0)
	if !ok {
		t.Fatal("block 0 missing")
	}
	a.Touch(0, w0)
	v := a.Victim(0)
	if a.AddrOf(0, v) != 1 {
		t.Fatalf("victim = block %d, want 1", a.AddrOf(0, v))
	}
	// Demote block 3 to make it the victim.
	_, w3, _ := a.Lookup(3)
	a.Demote(0, w3)
	if v := a.Victim(0); a.AddrOf(0, v) != 3 {
		t.Fatalf("victim after demote = block %d, want 3", a.AddrOf(0, v))
	}
}

// TestDemoteKeepsRelativeRecency is the regression test for the bug
// where Demote zeroed the use stamp: with several demoted lines in a
// set, Victim ties always broke toward the lowest way, destroying the
// lines' relative age. Demoted lines must leave oldest-first, and a
// later Touch must rescind the demotion.
func TestDemoteKeepsRelativeRecency(t *testing.T) {
	a := New[int](Geometry{Sets: 1, Ways: 4}, LRU)
	for i := 0; i < 4; i++ {
		a.Insert(0, i, uint64(i), i)
	}
	// Insertion order 0,1,2,3 (oldest first). Demote 3, then 1, then 2 —
	// demotion order must NOT matter, only the lines' own recency.
	for _, blk := range []uint64{3, 1, 2} {
		_, w, ok := a.Lookup(blk)
		if !ok {
			t.Fatalf("block %d missing", blk)
		}
		a.Demote(0, w)
	}
	// Victim order among the demoted: 1, then 2, then 3 (oldest stamps
	// first), and only then the never-demoted block 0.
	for _, want := range []uint64{1, 2, 3, 0} {
		w := a.Victim(0)
		if got := a.AddrOf(0, w); got != want {
			t.Fatalf("victim = block %d, want %d", got, want)
		}
		a.Invalidate(0, w)
	}

	// Touch rescinds a demotion: the line rejoins the normal order.
	b := New[int](Geometry{Sets: 1, Ways: 2}, LRU)
	b.Insert(0, 0, 0, 0)
	b.Insert(0, 1, 1, 1)
	b.Demote(0, 1)
	b.Touch(0, 1)
	if w := b.Victim(0); b.AddrOf(0, w) != 0 {
		t.Fatalf("touched-after-demote line victimized; victim = block %d, want 0", b.AddrOf(0, w))
	}
}

func TestNRUVictim(t *testing.T) {
	a := New[struct{}](Geometry{Sets: 1, Ways: 4}, NRU)
	for i := 0; i < 4; i++ {
		a.Insert(0, i, uint64(i), struct{}{})
	}
	// All referenced: the first pass clears bits and the scan restarts,
	// so way 0 is chosen.
	if v := a.Victim(0); v != 0 {
		t.Fatalf("victim = way %d, want 0", v)
	}
	// Reference ways 0 and 1; way 2 should now be the victim.
	a.Touch(0, 0)
	a.Touch(0, 1)
	if v := a.Victim(0); v != 2 {
		t.Fatalf("victim = way %d, want 2", v)
	}
}

func TestVictimExcept(t *testing.T) {
	a := New[string](Geometry{Sets: 1, Ways: 4}, LRU)
	kinds := []string{"data", "de", "data", "de"}
	for i, k := range kinds {
		a.Insert(0, i, uint64(i), k)
	}
	// Skip the "de" ways 1 and 3.
	w, ok := a.VictimExcept(0, 0b1010)
	if !ok || a.AddrOf(0, w) != 0 {
		t.Fatalf("filtered victim = %v/%v, want block 0", w, ok)
	}
	a.Touch(0, 0)
	if w, ok := a.VictimExcept(0, 0b1010); !ok || w != 2 {
		t.Fatalf("filtered victim after touching way 0 = %v/%v, want way 2", w, ok)
	}
	if _, ok := a.VictimExcept(0, 0b1111); ok {
		t.Fatal("no eligible way should report ok=false")
	}
}

func TestInvalidate(t *testing.T) {
	a := New[int](Geometry{Sets: 2, Ways: 2}, LRU)
	a.Insert(0, 0, 4, 42) // addr 4 maps to set 0
	if !a.Contains(4) {
		t.Fatal("lookup after insert failed")
	}
	set, way, _ := a.Lookup(4)
	a.Invalidate(set, way)
	if a.Contains(4) || a.CountValid() != 0 {
		t.Fatal("invalidate failed")
	}
}

func TestAddrOfRoundTrip(t *testing.T) {
	f := func(addr uint64) bool {
		a := New[struct{}](Geometry{Sets: 64, Ways: 4}, LRU)
		addr %= 1 << 40
		set := a.SetIndex(addr)
		a.Insert(set, 1, addr, struct{}{})
		return a.AddrOf(set, 1) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// checkOccupancy reports whether the array's validity views agree with
// ref: CountValid equals the reference size; per set, the valid ways
// hold exactly the reference blocks mapped there with their payloads;
// FreeWay is ok exactly when the reference leaves the set short of full
// and then names its lowest invalid way.
func checkOccupancy(a *Array[uint16], ref map[uint64]uint16) bool {
	if a.CountValid() != len(ref) {
		return false
	}
	g := a.Geometry()
	perSet := make([]int, g.Sets)
	for addr := range ref {
		perSet[a.SetIndex(addr)]++
	}
	for set := 0; set < g.Sets; set++ {
		valid, firstFree := 0, -1
		for way := 0; way < g.Ways; way++ {
			if !a.Valid(set, way) {
				if firstFree < 0 {
					firstFree = way
				}
				continue
			}
			valid++
			want, ok := ref[a.AddrOf(set, way)]
			if !ok || *a.Payload(set, way) != want {
				return false
			}
		}
		if valid != perSet[set] {
			return false
		}
		way, free := a.FreeWay(set)
		if free != (perSet[set] < g.Ways) || (free && way != firstFree) {
			return false
		}
	}
	return true
}

// Property: the array agrees with a reference map under random
// insert/lookup/invalidate sequences (victims evicted on conflict),
// checked after every operation under both replacement policies.
func TestArrayMatchesReference(t *testing.T) {
	for _, policy := range []Policy{LRU, NRU} {
		f := func(ops []uint16) bool {
			a := New[uint16](Geometry{Sets: 8, Ways: 2}, policy)
			ref := map[uint64]uint16{}
			for _, op := range ops {
				addr := uint64(op % 64)
				switch op % 3 {
				case 0: // insert
					set, way, ok := a.Lookup(addr)
					if !ok {
						var free bool
						way, free = a.FreeWay(set)
						if !free {
							way = a.Victim(set)
							delete(ref, a.AddrOf(set, way))
						}
					}
					a.Insert(set, way, addr, op)
					ref[addr] = op
				case 1: // lookup
					set, way, ok := a.Lookup(addr)
					want, inRef := ref[addr]
					if ok != inRef {
						return false
					}
					if ok && *a.Payload(set, way) != want {
						return false
					}
				case 2: // invalidate
					if set, way, ok := a.Lookup(addr); ok {
						a.Invalidate(set, way)
						delete(ref, addr)
					}
				}
				if !checkOccupancy(a, ref) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("policy %d: %v", policy, err)
		}
	}
}

// TestInsertRejectsSentinelTag: validity is read from the tag sentinel
// alone, so a block whose tag equals it would be stored as an invalid
// way. Insert must refuse it loudly. Only a one-set array (no index
// bits shifted out of the tag) can produce such a tag.
func TestInsertRejectsSentinelTag(t *testing.T) {
	a := New[int](Geometry{Sets: 1, Ways: 2}, LRU)
	defer func() {
		if r := recover(); r != sentinelTagPanic {
			t.Fatalf("Insert of the sentinel tag: recovered %v, want %q", r, sentinelTagPanic)
		}
		if a.CountValid() != 0 {
			t.Fatalf("refused Insert changed the array: %d valid lines", a.CountValid())
		}
	}()
	a.Insert(0, 0, invalidTag, 1)
}

func TestPayloadPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Payload of an invalid way must panic")
		}
	}()
	a := New[int](Geometry{Sets: 1, Ways: 1}, LRU)
	a.Payload(0, 0)
}

// benchPolicies names the replacement policies every Array benchmark
// runs under.
var benchPolicies = []struct {
	name   string
	policy Policy
}{{"LRU", LRU}, {"NRU", NRU}}

// benchArray returns a full 64-set, 16-way array (the LLC bank shape)
// whose blocks are 0..1023, every line touched once.
func benchArray(policy Policy) *Array[uint64] {
	a := New[uint64](Geometry{Sets: 64, Ways: 16}, policy)
	for addr := uint64(0); addr < 64*16; addr++ {
		set := a.SetIndex(addr)
		way, _ := a.FreeWay(set)
		a.Insert(set, way, addr, addr)
	}
	return a
}

var benchSink int

// BenchmarkArrayLookup probes a full array; half the probes hit.
func BenchmarkArrayLookup(b *testing.B) {
	for _, p := range benchPolicies {
		b.Run(p.name, func(b *testing.B) {
			a := benchArray(p.policy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, way, _ := a.Lookup(uint64(i & 2047))
				benchSink += way
			}
		})
	}
}

// BenchmarkArrayVictim chooses a victim in a full set, unfiltered
// (Victim) and skipping every other way (VictimExcept).
func BenchmarkArrayVictim(b *testing.B) {
	for _, p := range benchPolicies {
		a := benchArray(p.policy)
		b.Run(fmt.Sprintf("Victim/%s", p.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += a.Victim(i & 63)
			}
		})
		b.Run(fmt.Sprintf("VictimExcept/%s", p.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, _ := a.VictimExcept(i&63, 0x5555)
				benchSink += w
			}
		})
	}
}

// BenchmarkArrayInsert refills a full array: each insert replaces its
// set's victim, the steady state of every simulated cache.
func BenchmarkArrayInsert(b *testing.B) {
	for _, p := range benchPolicies {
		b.Run(p.name, func(b *testing.B) {
			a := benchArray(p.policy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := uint64(1024 + i&4095)
				set := a.SetIndex(addr)
				a.Insert(set, a.Victim(set), addr, addr)
			}
		})
	}
}

// shadowSet is a test-local model of one set's replacement state, kept
// in the terms of the predicate-driven victim scan VictimExcept
// replaced: per way a validity flag, an LRU use stamp and demotion
// mark, and an NRU reference bit.
type shadowSet struct {
	valid, demoted, ref []bool
	stamp               []uint64
}

type shadow struct {
	sets  []shadowSet
	clock uint64
}

func newShadow(geo Geometry) *shadow {
	sh := &shadow{sets: make([]shadowSet, geo.Sets)}
	for i := range sh.sets {
		sh.sets[i] = shadowSet{make([]bool, geo.Ways), make([]bool, geo.Ways), make([]bool, geo.Ways), make([]uint64, geo.Ways)}
	}
	return sh
}

func (sh *shadow) touch(set, way int) {
	s := &sh.sets[set]
	sh.clock++
	s.valid[way], s.stamp[way], s.demoted[way], s.ref[way] = true, sh.clock, false, true
}

// victimWhere is the reference scan: under LRU the eligible valid way
// with the oldest stamp, demoted lines first, lowest way on ties; under
// NRU the first eligible way with a clear reference bit, after clearing
// the bits of the eligible ways (and only those) when all are set.
func (sh *shadow) victimWhere(policy Policy, set int, eligible func(way int) bool) (int, bool) {
	s := &sh.sets[set]
	ok := func(w int) bool { return s.valid[w] && eligible(w) }
	switch policy {
	case LRU:
		best := -1
		for w := range s.valid {
			if !ok(w) {
				continue
			}
			if best < 0 || (s.demoted[w] && !s.demoted[best]) ||
				(s.demoted[w] == s.demoted[best] && s.stamp[w] < s.stamp[best]) {
				best = w
			}
		}
		return best, best >= 0
	case NRU:
		any := false
		for pass := 0; pass < 2; pass++ {
			for w := range s.valid {
				if ok(w) {
					any = true
					if !s.ref[w] {
						return w, true
					}
				}
			}
			if !any {
				return -1, false
			}
			for w := range s.valid {
				if ok(w) {
					s.ref[w] = false
				}
			}
		}
	}
	return -1, false
}

// TestVictimExceptMatchesReference drives an array through random
// inserts, touches, demotions and invalidations (so sets carry free
// ways and demoted lines), mirroring each in a shadow model, and at
// every step asks both for a victim under a random skip mask. Way
// choice, ok, and (under NRU) the reference bits left behind must
// agree.
func TestVictimExceptMatchesReference(t *testing.T) {
	for _, p := range benchPolicies {
		t.Run(p.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			geo := Geometry{Sets: 4, Ways: 8}
			a, sh := New[int](geo, p.policy), newShadow(geo)
			for step := 0; step < 20000; step++ {
				set, way := rng.Intn(geo.Sets), rng.Intn(geo.Ways)
				switch op := rng.Intn(10); {
				case op < 4:
					a.Insert(set, way, uint64(rng.Intn(64))<<2|uint64(set), step)
					sh.touch(set, way)
				case op < 6:
					if a.Valid(set, way) {
						a.Touch(set, way)
						sh.touch(set, way)
					}
				case op < 7:
					if a.Valid(set, way) {
						a.Demote(set, way)
						sh.sets[set].demoted[way], sh.sets[set].ref[way] = true, false
					}
				case op < 8:
					a.Invalidate(set, way)
					sh.sets[set].valid[way], sh.sets[set].ref[way] = false, false
				}
				skip := rng.Uint64() & rng.Uint64() // about a quarter of the ways
				if rng.Intn(4) == 0 {
					skip = 0
				}
				gw, gok := a.VictimExcept(set, skip)
				ww, wok := sh.victimWhere(p.policy, set, func(w int) bool { return skip&(1<<w) == 0 })
				if gw != ww || gok != wok {
					t.Fatalf("step %d set %d skip %#x: VictimExcept = %d/%v, reference = %d/%v", step, set, skip, gw, gok, ww, wok)
				}
				if p.policy == NRU {
					for s := range sh.sets {
						for w := range sh.sets[s].ref {
							if a.ref[s*geo.Ways+w] != sh.sets[s].ref[w] {
								t.Fatalf("step %d: set %d way %d reference bit %v, reference scan left %v",
									step, s, w, a.ref[s*geo.Ways+w], sh.sets[s].ref[w])
							}
						}
					}
				}
			}
		})
	}
}
