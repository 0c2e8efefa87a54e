package llc

import (
	"errors"
	"math/bits"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/coher"
)

func tiny(repl Repl) *LLC {
	// 1 bank, 1 set, 4 ways.
	l, err := NewGeometry(1, 4, 1, NonInclusive, repl)
	if err != nil {
		panic(err)
	}
	return l
}

func owned(c coher.CoreID) coher.Entry {
	return coher.Entry{State: coher.DirOwned, Owner: c}
}

func shared(cs ...coher.CoreID) coher.Entry {
	e := coher.Entry{State: coher.DirShared}
	for _, c := range cs {
		e.Sharers.Add(c)
	}
	return e
}

func TestProbeAndKinds(t *testing.T) {
	l := tiny(LRU)
	if _, evicted := fillData(l, 1, false); evicted {
		t.Fatal("insert into empty set evicted")
	}
	v := l.Probe(1)
	if !v.HasData() || v.HasDE() || v.Fused {
		t.Fatalf("view = %+v", v)
	}
	// A spilled entry for the same address coexists in the set (two tag
	// matches, distinguished by state, §III-C1).
	if _, evicted := fillSpilled(l, 1, shared(0)); evicted {
		t.Fatal("unexpected eviction")
	}
	v = l.Probe(1)
	if !v.HasData() || !v.HasDE() || v.Fused || v.DataWay == v.DEWay {
		t.Fatalf("view = %+v", v)
	}
	d, s, f := l.CountKinds()
	if d != 1 || s != 1 || f != 0 {
		t.Fatalf("kinds = %d/%d/%d", d, s, f)
	}
}

func TestFuseUnfuse(t *testing.T) {
	l := tiny(LRU)
	fillData(l, 2, true)
	v := l.Probe(2)
	l.Fuse(v, owned(3))
	v = l.Probe(2)
	if !v.Fused || v.DataWay != v.DEWay {
		t.Fatalf("view after fuse = %+v", v)
	}
	if p := l.Payload(v, v.DEWay); !p.Dirty || p.Entry.Owner != 3 {
		t.Fatalf("payload = %+v", p)
	}
	l.Unfuse(v)
	v = l.Probe(2)
	if v.Fused || !v.HasData() || v.HasDE() {
		t.Fatalf("view after unfuse = %+v", v)
	}
	if !l.Payload(v, v.DataWay).Dirty {
		t.Fatal("unfuse must preserve the block-dirty bit")
	}
}

func TestDropDE(t *testing.T) {
	l := tiny(LRU)
	fillSpilled(l, 4, shared(1))
	l.DropDE(l.Probe(4))
	if v := l.Probe(4); v.HasDE() || v.HasData() {
		t.Fatal("spilled line must vanish")
	}
	fillData(l, 5, false)
	l.Fuse(l.Probe(5), owned(0))
	l.DropDE(l.Probe(5))
	if v := l.Probe(5); !v.HasData() || v.HasDE() {
		t.Fatal("fused line must revert to data")
	}
}

func TestDataLRUPrefersDataVictims(t *testing.T) {
	l := tiny(DataLRU)
	fillSpilled(l, 0, shared(1)) // oldest
	fillData(l, 1, false)
	fillData(l, 2, false)
	fillData(l, 3, false)
	// Set full; inserting picks the LRU *data* line (addr 1), not the
	// older spilled entry.
	ev, evicted := fillData(l, 4, false)
	if !evicted || ev.Kind != KindData || ev.Addr != 1 {
		t.Fatalf("evicted = %+v, want data block 1", ev)
	}
	// When only DE lines remain eligible, they are evicted as a fallback.
	l2 := tiny(DataLRU)
	for i := coher.Addr(0); i < 4; i++ {
		fillSpilled(l2, i, shared(1))
	}
	ev, evicted = fillData(l2, 9, false)
	if !evicted || ev.Kind != KindSpilled {
		t.Fatalf("fallback evicted = %+v", ev)
	}
}

func TestSpLRUTouchOrderProtectsSpill(t *testing.T) {
	l := tiny(SpLRU)
	fillData(l, 0, false)
	fillSpilled(l, 0, shared(2))
	fillData(l, 1, false)
	fillData(l, 2, false)
	// Access block 0: touch B then its spilled entry (spill ends MRU).
	l.Touch(l.Probe(0))
	// Next insertions evict block 1, then block 2, then block 0 — the
	// spilled entry outlives its block.
	ev, evicted := fillData(l, 3, false)
	if !evicted || ev.Addr != 1 || ev.Kind != KindData {
		t.Fatalf("first eviction = %+v", ev)
	}
	ev, evicted = fillData(l, 4, false)
	if !evicted || ev.Addr != 2 {
		t.Fatalf("second eviction = %+v", ev)
	}
	ev, evicted = fillData(l, 5, false)
	if !evicted || ev.Addr != 0 || ev.Kind != KindData {
		t.Fatalf("third eviction = %+v (block must leave before its spill)", ev)
	}
	ev, evicted = fillData(l, 6, false)
	if !evicted || ev.Kind != KindSpilled || ev.Addr != 0 {
		t.Fatalf("fourth eviction = %+v (now the spill)", ev)
	}
}

func TestProtection(t *testing.T) {
	l := tiny(LRU)
	fillData(l, 0, false) // oldest → natural victim
	fillData(l, 1, false)
	fillData(l, 2, false)
	fillData(l, 3, false)
	l.Protect(0)
	ev, evicted := fillData(l, 4, false)
	if !evicted || ev.Addr == 0 {
		t.Fatalf("protected line evicted: %+v", ev)
	}
	l.Unprotect()
	ev, evicted = fillData(l, 5, false)
	if !evicted || ev.Addr != 0 {
		t.Fatalf("after unprotect, block 0 should go: %+v", ev)
	}
}

func TestBankMapping(t *testing.T) {
	l := MustNew(64<<10, 16, 8, NonInclusive, LRU)
	if l.Banks() != 8 || l.Ways() != 16 || l.Blocks() != 1024 {
		t.Fatalf("geometry: banks=%d ways=%d blocks=%d", l.Banks(), l.Ways(), l.Blocks())
	}
	// Round-trip: inserting an address makes it probeable, and evicted
	// addresses reconstruct correctly.
	addr := coher.Addr(0x12345)
	fillData(l, addr, true)
	v := l.Probe(addr)
	if !v.HasData() || v.Bank != l.BankOf(addr) {
		t.Fatalf("probe after insert failed: %+v", v)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(100, 16, 8, NonInclusive, LRU); err == nil {
		t.Fatal("indivisible capacity accepted")
	}
	if _, err := NewGeometry(3, 4, 1, NonInclusive, LRU); err == nil {
		t.Fatal("non-power-of-two sets accepted")
	}
}

// checkDEWays asserts the per-set directory-entry way masks agree
// with an exhaustive kind census. Probe's single-way fast path and the
// dataLRU victim scan are only correct while every mask is exact, so
// any drift is a correctness bug, not a performance one.
func checkDEWays(t *testing.T, l *LLC) {
	t.Helper()
	for b, arr := range l.arrs {
		g := arr.Geometry()
		for set := 0; set < g.Sets; set++ {
			var want uint64
			for w := 0; w < g.Ways; w++ {
				if arr.Valid(set, w) && arr.Payload(set, w).Kind != KindData {
					want |= 1 << w
				}
			}
			if got := l.deWays[b*l.sets+set]; got != want {
				t.Fatalf("bank %d set %d: DE way mask %#x, census %#x", b, set, got, want)
			}
		}
	}
}

func TestDEWayMasksTrackKindCensus(t *testing.T) {
	l := tiny(LRU)
	checkDEWays(t, l)

	fillData(l, 1, false)
	checkDEWays(t, l)
	fillSpilled(l, 1, shared(0))
	checkDEWays(t, l)

	// Fuse a second block, unfuse it again.
	fillData(l, 2, true)
	v := l.Probe(2)
	l.Fuse(v, owned(3))
	checkDEWays(t, l)
	l.Unfuse(l.Probe(2))
	checkDEWays(t, l)

	// Drop the spilled entry.
	l.DropDE(l.Probe(1))
	checkDEWays(t, l)

	// Refill the set with spills, then force evictions of DE lines by
	// data allocations (the set has 4 ways).
	fillSpilled(l, 5, shared(1))
	fillSpilled(l, 9, shared(2))
	fillSpilled(l, 13, owned(1))
	checkDEWays(t, l)
	for a := coher.Addr(17); a < 33; a += 4 {
		fillData(l, a, false)
		checkDEWays(t, l)
	}

	// Drop via a fused line's DropDE path.
	v = l.Probe(29)
	if v.HasData() {
		l.Fuse(v, owned(2))
		checkDEWays(t, l)
		l.DropDE(l.Probe(29))
		checkDEWays(t, l)
	}
}

// TestLineStateSizes pins the per-line coherence state. Every LLC way
// carries a Payload, data lines included, because any way may house a
// spilled or fused directory entry; every sparse-directory way carries
// an Entry and every socket directory-cache way a SocketEntry. A field
// that regrows one of these types is paid once per simulated line, so
// it must fail here rather than surface only as a heap-bytes regression.
func TestLineStateSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"coher.CoreSet", unsafe.Sizeof(coher.CoreSet{}), 24},
		{"coher.Entry", unsafe.Sizeof(coher.Entry{}), 32},
		{"coher.SocketEntry", unsafe.Sizeof(coher.SocketEntry{}), 16},
		{"llc.Payload", unsafe.Sizeof(Payload{}), 40},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// benchLLC returns a full 4-bank, 64-set, 16-way spLRU LLC (4096 lines)
// in which every third data block also has a spilled entry (a quarter
// of the lines), so Probe takes the two-match path that classifies line
// kinds.
func benchLLC() *LLC {
	l, err := NewGeometry(64, 16, 4, NonInclusive, SpLRU)
	if err != nil {
		panic(err)
	}
	for a := coher.Addr(0); a < 3072; a++ {
		fillData(l, a, false)
		if a%3 == 0 {
			fillSpilled(l, a, shared(coher.CoreID(a&7)))
		}
	}
	return l
}

var benchView View

// BenchmarkProbe probes a DE-holding LLC; a quarter of the probes miss.
func BenchmarkProbe(b *testing.B) {
	l := benchLLC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchView = l.Probe(coher.Addr(i & 4095))
	}
}

// BenchmarkInsertSpilled spills entries into a full DE-holding LLC, each
// fill evicting its set's LRU line. Under plain LRU a cycle of 8192
// addresses evicts each spill long before its address recurs, which
// keeps InsertSpilled's no-resident-DE precondition.
func BenchmarkInsertSpilled(b *testing.B) {
	l, err := NewGeometry(64, 16, 4, NonInclusive, LRU)
	if err != nil {
		b.Fatal(err)
	}
	for a := coher.Addr(0); a < 4096; a++ {
		fillData(l, a, false)
	}
	e := shared(1, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillSpilled(l, coher.Addr(4096+i&8191), e)
	}
}

var benchWay int

// BenchmarkVictimDataLRU picks dataLRU victims in a full 4-bank,
// 64-set, 16-way LLC where every set holds spilled entries beside its
// data lines (a quarter of the lines). The pinned case protects a
// block with both a data line and a spilled entry in the scanned set,
// as every demand fill of a transaction's own block does.
func BenchmarkVictimDataLRU(b *testing.B) {
	l, err := NewGeometry(64, 16, 4, NonInclusive, DataLRU)
	if err != nil {
		b.Fatal(err)
	}
	for a := coher.Addr(0); a < 3072; a++ {
		fillData(l, a, false)
		if a%3 == 0 {
			fillSpilled(l, a, shared(coher.CoreID(a&7)))
		}
	}
	for _, pinned := range []bool{false, true} {
		name := "unpinned"
		if pinned {
			name = "pinned"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Blocks 0..255 cover every (bank, set) once; a multiple of
				// 3 below 3072 in the same set is 768 apart.
				a := coher.Addr(i&255) * 3 % 256
				if pinned {
					l.Protect(a)
				}
				benchWay, _, _ = l.victimWay(l.BankOf(a), l.arrs[l.BankOf(a)].SetIndex(l.local(a)))
			}
			l.Unprotect()
		})
	}
}

func fillData(l *LLC, a coher.Addr, dirty bool) (Evicted, bool) {
	_, ev, evicted := l.InsertData(a, l.Probe(a), dirty)
	return ev, evicted
}

func fillSpilled(l *LLC, a coher.Addr, e coher.Entry) (Evicted, bool) {
	_, ev, evicted := l.InsertSpilled(a, l.Probe(a), e)
	return ev, evicted
}

// refVictim is victim selection as it was before the mask scan, kept as
// the reference: eligibility is a per-way predicate (dataLRU first
// admits only data lines, the pin excludes the protected tag), and the
// LRU order comes from the array's canonical state encoding, which
// ranks each valid way by when replacement would pick it. remains
// reports whether the victim's tag occupies another way of the set.
func refVictim(l *LLC, bank, set int) (way int, remains, evicted bool) {
	arr := l.arrs[bank]
	if w, free := arr.FreeWay(set); free {
		return w, false, false
	}
	// One set's encoding: per valid way, way byte, 8 tag bytes, rank byte
	// (0x80 marks a demoted line), then 0xff.
	rank := make(map[int]int)
	enc := arr.AppendState(nil, nil)
	cur := 0
	for i := 0; i < len(enc); {
		if enc[i] == 0xff {
			cur++
			i++
			continue
		}
		if cur == set {
			r := int(enc[i+9] & 0x7f)
			if enc[i+9]&0x80 == 0 {
				r += 64 // demoted lines rank before every non-demoted one
			}
			rank[int(enc[i])] = r
		}
		i += 10
	}
	pinned := l.hasProtected && bank == l.protBank && set == l.protSet
	pick := func(eligible func(w int) bool) int {
		best := -1
		for w := 0; w < arr.Geometry().Ways; w++ {
			if eligible(w) && (best < 0 || rank[w] < rank[best]) {
				best = w
			}
		}
		return best
	}
	unpinned := func(w int) bool { return !pinned || arr.TagAt(set, w) != l.protTag }
	way = -1
	if l.repl == DataLRU {
		way = pick(func(w int) bool { return unpinned(w) && arr.Payload(set, w).Kind == KindData })
	}
	if way < 0 {
		way = pick(unpinned)
	}
	for w := 0; w < arr.Geometry().Ways; w++ {
		if w != way && arr.Valid(set, w) && arr.TagAt(set, w) == arr.TagAt(set, way) {
			remains = true
		}
	}
	return way, remains, true
}

// TestVictimWayMatchesReference drives a two-set, 8-way LLC through
// random fills, fuses, unfuses, DE drops, data invalidations, demotions,
// touches and pins (on zero, one or two ways of a set), and after every
// step compares victimWay in both sets with refVictim under each
// replacement policy, and the DE way masks with a kind census.
func TestVictimWayMatchesReference(t *testing.T) {
	for _, repl := range []Repl{LRU, SpLRU, DataLRU} {
		t.Run(repl.String(), func(t *testing.T) {
			l, err := NewGeometry(2, 8, 1, NonInclusive, repl)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			pins := [3]int{}
			for step := 0; step < 30000; step++ {
				a := coher.Addr(rng.Intn(24))
				v := l.Probe(a)
				switch rng.Intn(10) {
				case 0, 1:
					if !v.HasData() {
						fillData(l, a, rng.Intn(2) == 0)
					}
				case 2:
					if !v.HasDE() {
						fillSpilled(l, a, shared(1))
					}
				case 3:
					if v.HasData() && !v.HasDE() {
						l.Fuse(v, owned(2))
					}
				case 4:
					if v.Fused {
						l.Unfuse(v)
					}
				case 5:
					if v.HasDE() {
						l.DropDE(v)
					}
				case 6:
					if v.HasData() && !v.Fused {
						l.InvalidateData(v)
					}
				case 7:
					if v.HasData() {
						l.Demote(v)
					}
				case 8:
					if v.HasData() || v.HasDE() {
						l.Touch(v)
					}
				case 9:
					if rng.Intn(4) == 0 {
						l.Unprotect()
					} else {
						l.Protect(a)
					}
				}
				checkDEWays(t, l)
				for set := 0; set < 2; set++ {
					gw, gev, gok := l.victimWay(0, set)
					ww, wrem, wok := refVictim(l, 0, set)
					if gw != ww || gok != wok || (gok && gev.Remains != wrem) {
						t.Fatalf("step %d set %d: victimWay = %d/%v remains %v, reference = %d/%v remains %v",
							step, set, gw, gok, gev.Remains, ww, wok, wrem)
					}
					if gok && l.hasProtected && set == l.protSet {
						pins[bits.OnesCount64(l.arrs[0].WayMask(set, l.protTag))]++
					}
				}
			}
			for n, c := range pins {
				if c == 0 {
					t.Errorf("no full-set victim choice ran with a pin on %d ways", n)
				}
			}
		})
	}
}

// TestNewGeometryWays pins the associativity bound at construction.
func TestNewGeometryWays(t *testing.T) {
	if _, err := NewGeometry(4, 64, 2, NonInclusive, DataLRU); err != nil {
		t.Errorf("64 ways: %v", err)
	}
	if _, err := NewGeometry(4, 65, 2, NonInclusive, DataLRU); !errors.Is(err, cache.ErrTooManyWays) {
		t.Errorf("65 ways: err = %v, want cache.ErrTooManyWays", err)
	}
	if _, err := New(65*64*8, 65, 1, NonInclusive, DataLRU); !errors.Is(err, cache.ErrTooManyWays) {
		t.Errorf("New with 65 ways: err = %v, want cache.ErrTooManyWays", err)
	}
}

// TestUnpinnedSelfEviction covers an allocation outside a transaction
// pin whose victim is the allocating block's own other line: the
// returned view must drop that line, and the eviction must report the
// block as still resident (it now owns the new line).
func TestUnpinnedSelfEviction(t *testing.T) {
	l := tiny(LRU)
	fillSpilled(l, 1, shared(0)) // oldest: block 1's spilled entry
	for a := coher.Addr(2); a < 5; a++ {
		fillData(l, a, false)
	}
	v, ev, evicted := l.InsertData(1, l.Probe(1), false)
	if !evicted || ev.Addr != 1 || ev.Kind != KindSpilled || !ev.Remains {
		t.Fatalf("data fill evicted %+v (evicted=%v), want block 1's spilled entry, still resident", ev, evicted)
	}
	if v != l.Probe(1) || v.HasDE() {
		t.Fatalf("view after data fill %+v, probe %+v", v, l.Probe(1))
	}

	l = tiny(LRU)
	fillData(l, 1, false) // oldest: block 1's data line
	for a := coher.Addr(2); a < 5; a++ {
		fillData(l, a, false)
	}
	v, ev, evicted = l.InsertSpilled(1, l.Probe(1), shared(0))
	if !evicted || ev.Addr != 1 || ev.Kind != KindData || !ev.Remains {
		t.Fatalf("spill evicted %+v (evicted=%v), want block 1's data line, still resident", ev, evicted)
	}
	if v != l.Probe(1) || v.HasData() {
		t.Fatalf("view after spill %+v, probe %+v", v, l.Probe(1))
	}
}
