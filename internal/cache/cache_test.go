package cache

import (
	"fmt"
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

func TestVictimWhere(t *testing.T) {
	a := New[string](Geometry{Sets: 1, Ways: 4}, LRU)
	kinds := []string{"data", "de", "data", "de"}
	for i, k := range kinds {
		a.Insert(0, i, uint64(i), k)
	}
	w, ok := a.VictimWhere(0, func(_ int, k *string) bool { return *k == "data" })
	if !ok || a.AddrOf(0, w) != 0 {
		t.Fatalf("filtered victim = %v/%v, want block 0", w, ok)
	}
	if _, ok := a.VictimWhere(0, func(_ int, k *string) bool { return *k == "none" }); ok {
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
// (Victim) and through an eligibility filter (VictimWhere).
func BenchmarkArrayVictim(b *testing.B) {
	odd := func(_ int, p *uint64) bool { return *p&1 == 1 }
	for _, p := range benchPolicies {
		a := benchArray(p.policy)
		b.Run(fmt.Sprintf("Victim/%s", p.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += a.Victim(i & 63)
			}
		})
		b.Run(fmt.Sprintf("VictimWhere/%s", p.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, _ := a.VictimWhere(i&63, odd)
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
