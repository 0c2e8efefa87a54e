package llc

import (
	"testing"
	"unsafe"

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
	if _, evicted := l.InsertData(1, false); evicted {
		t.Fatal("insert into empty set evicted")
	}
	v := l.Probe(1)
	if !v.HasData() || v.HasDE() || v.Fused {
		t.Fatalf("view = %+v", v)
	}
	// A spilled entry for the same address coexists in the set (two tag
	// matches, distinguished by state, §III-C1).
	if _, evicted := l.InsertSpilled(1, shared(0)); evicted {
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
	l.InsertData(2, true)
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
	l.InsertSpilled(4, shared(1))
	l.DropDE(l.Probe(4))
	if v := l.Probe(4); v.HasDE() || v.HasData() {
		t.Fatal("spilled line must vanish")
	}
	l.InsertData(5, false)
	l.Fuse(l.Probe(5), owned(0))
	l.DropDE(l.Probe(5))
	if v := l.Probe(5); !v.HasData() || v.HasDE() {
		t.Fatal("fused line must revert to data")
	}
}

func TestDataLRUPrefersDataVictims(t *testing.T) {
	l := tiny(DataLRU)
	l.InsertSpilled(0, shared(1)) // oldest
	l.InsertData(1, false)
	l.InsertData(2, false)
	l.InsertData(3, false)
	// Set full; inserting picks the LRU *data* line (addr 1), not the
	// older spilled entry.
	ev, evicted := l.InsertData(4, false)
	if !evicted || ev.Kind != KindData || ev.Addr != 1 {
		t.Fatalf("evicted = %+v, want data block 1", ev)
	}
	// When only DE lines remain eligible, they are evicted as a fallback.
	l2 := tiny(DataLRU)
	for i := coher.Addr(0); i < 4; i++ {
		l2.InsertSpilled(i, shared(1))
	}
	ev, evicted = l2.InsertData(9, false)
	if !evicted || ev.Kind != KindSpilled {
		t.Fatalf("fallback evicted = %+v", ev)
	}
}

func TestSpLRUTouchOrderProtectsSpill(t *testing.T) {
	l := tiny(SpLRU)
	l.InsertData(0, false)
	l.InsertSpilled(0, shared(2))
	l.InsertData(1, false)
	l.InsertData(2, false)
	// Access block 0: touch B then its spilled entry (spill ends MRU).
	l.Touch(l.Probe(0))
	// Next insertions evict block 1, then block 2, then block 0 — the
	// spilled entry outlives its block.
	ev, evicted := l.InsertData(3, false)
	if !evicted || ev.Addr != 1 || ev.Kind != KindData {
		t.Fatalf("first eviction = %+v", ev)
	}
	ev, evicted = l.InsertData(4, false)
	if !evicted || ev.Addr != 2 {
		t.Fatalf("second eviction = %+v", ev)
	}
	ev, evicted = l.InsertData(5, false)
	if !evicted || ev.Addr != 0 || ev.Kind != KindData {
		t.Fatalf("third eviction = %+v (block must leave before its spill)", ev)
	}
	ev, evicted = l.InsertData(6, false)
	if !evicted || ev.Kind != KindSpilled || ev.Addr != 0 {
		t.Fatalf("fourth eviction = %+v (now the spill)", ev)
	}
}

func TestProtection(t *testing.T) {
	l := tiny(LRU)
	l.InsertData(0, false) // oldest → natural victim
	l.InsertData(1, false)
	l.InsertData(2, false)
	l.InsertData(3, false)
	l.Protect(0)
	ev, evicted := l.InsertData(4, false)
	if !evicted || ev.Addr == 0 {
		t.Fatalf("protected line evicted: %+v", ev)
	}
	l.Unprotect()
	ev, evicted = l.InsertData(5, false)
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
	l.InsertData(addr, true)
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

// checkDELines asserts the deLines fast-path counter agrees with an
// exhaustive kind census. Probe's single-way fast path is only correct
// while the counter is exact, so any drift is a correctness bug, not a
// performance one.
func checkDELines(t *testing.T, l *LLC) {
	t.Helper()
	_, s, f := l.CountKinds()
	if l.deLines != s+f {
		t.Fatalf("deLines = %d, want %d (spilled %d + fused %d)", l.deLines, s+f, s, f)
	}
}

func TestDELinesCounterTracksKindCensus(t *testing.T) {
	l := tiny(LRU)
	checkDELines(t, l)

	l.InsertData(1, false)
	checkDELines(t, l)
	l.InsertSpilled(1, shared(0))
	checkDELines(t, l)

	// Fuse a second block, unfuse it again.
	l.InsertData(2, true)
	v := l.Probe(2)
	l.Fuse(v, owned(3))
	checkDELines(t, l)
	l.Unfuse(l.Probe(2))
	checkDELines(t, l)

	// Drop the spilled entry.
	l.DropDE(l.Probe(1))
	checkDELines(t, l)

	// Refill the set with spills, then force evictions of DE lines by
	// data allocations (the set has 4 ways).
	l.InsertSpilled(5, shared(1))
	l.InsertSpilled(9, shared(2))
	l.InsertSpilled(13, owned(1))
	checkDELines(t, l)
	for a := coher.Addr(17); a < 33; a += 4 {
		l.InsertData(a, false)
		checkDELines(t, l)
	}

	// Drop via a fused line's DropDE path.
	v = l.Probe(29)
	if v.HasData() {
		l.Fuse(v, owned(2))
		checkDELines(t, l)
		l.DropDE(l.Probe(29))
		checkDELines(t, l)
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
		l.InsertData(a, false)
		if a%3 == 0 {
			l.InsertSpilled(a, shared(coher.CoreID(a&7)))
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
		l.InsertData(a, false)
	}
	e := shared(1, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.InsertSpilled(coher.Addr(4096+i&8191), e)
	}
}
