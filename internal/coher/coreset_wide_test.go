package coher

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

// wideBoundaries are the core IDs the widened CoreSet must get right:
// the last bit of each inline word (63, 127), the first bit past each
// (64, 128 — the first ID forcing the external spill), and the top of a
// 1024-core frontier system.
var wideBoundaries = []CoreID{0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192, 255, 256, 511, 512, 1022, 1023}

// refSet mirrors CoreSet operations in a plain map.
type refSet map[CoreID]bool

func (r refSet) members() []CoreID {
	out := make([]CoreID, 0, len(r))
	for c := range r {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func checkAgainstRef(t *testing.T, s CoreSet, ref refSet) {
	t.Helper()
	if s.Count() != len(ref) {
		t.Fatalf("Count = %d, ref %d (set %v)", s.Count(), len(ref), s)
	}
	want := ref.members()
	got := s.Members()
	if len(got) != len(want) {
		t.Fatalf("Members = %v, ref %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Members[%d] = %d, ref %d", i, got[i], want[i])
		}
	}
	if len(want) > 0 && s.First() != want[0] {
		t.Fatalf("First = %d, ref %d", s.First(), want[0])
	}
	for _, c := range wideBoundaries {
		if s.Contains(c) != ref[c] {
			t.Fatalf("Contains(%d) = %v, ref %v", c, s.Contains(c), ref[c])
		}
	}
	// Word round-trip must reproduce the set exactly at any width: the
	// full representation is the two inline words followed by ExtWords.
	lo, hi := s.Words()
	words := append([]uint64{lo, hi}, s.ExtWords()...)
	var back CoreSet
	back.SetFromWords(words)
	if !back.Equal(s) {
		t.Fatalf("word round-trip %v != %v", back, s)
	}
	if got := s.WordCount(); got != 2+len(s.ExtWords()) {
		t.Fatalf("WordCount = %d, ext %d", got, len(s.ExtWords()))
	}
	for i := 0; i < len(words); i++ {
		if s.Word(i) != words[i] {
			t.Fatalf("Word(%d) = %#x, want %#x", i, s.Word(i), words[i])
		}
	}
}

func TestCoreSetWideBoundaries(t *testing.T) {
	// Table: every boundary ID alone, then cumulative, then removed in
	// reverse, comparing against the map reference at each step.
	for _, c := range wideBoundaries {
		var s CoreSet
		s.Add(c)
		checkAgainstRef(t, s, refSet{c: true})
	}
	var s CoreSet
	ref := refSet{}
	for _, c := range wideBoundaries {
		s.Add(c)
		s.Add(c) // idempotent
		ref[c] = true
		checkAgainstRef(t, s, ref)
	}
	for i := len(wideBoundaries) - 1; i >= 0; i-- {
		c := wideBoundaries[i]
		s.Remove(c)
		delete(ref, c)
		checkAgainstRef(t, s, ref)
	}
	if !s.Empty() {
		t.Fatalf("set not empty after removing all: %v", s)
	}
}

func TestCoreSetWideSupersetAcrossWords(t *testing.T) {
	// Superset must hold per word even when one side has spilled to the
	// external representation and the other has not.
	var wide, narrow CoreSet
	for _, c := range []CoreID{3, 63, 64, 127, 128, 700, 1023} {
		wide.Add(c)
	}
	narrow.Add(63)
	narrow.Add(64)
	if !wide.Superset(narrow) || narrow.Superset(wide) {
		t.Fatal("superset across the spill boundary wrong")
	}
	narrow.Add(999) // not in wide
	if wide.Superset(narrow) {
		t.Fatal("missing member 999 not detected")
	}
	// A set that shrinks back under 128 must compare equal to one that
	// never spilled.
	var shrunk, inline CoreSet
	shrunk.Add(10)
	shrunk.Add(1000)
	shrunk.Remove(1000)
	inline.Add(10)
	if !shrunk.Equal(inline) || !inline.Superset(shrunk) || !shrunk.Superset(inline) {
		t.Fatal("shrunk set not canonical: spilled tail must not affect equality")
	}
}

// Property: the widened set agrees with the map reference for arbitrary
// add/remove sequences over the full 1024-core ID range, exercising the
// inline->external spill and the copy-on-write sharing of ext words.
func TestCoreSetWideProperty(t *testing.T) {
	f := func(adds, removes []uint16) bool {
		var s CoreSet
		ref := refSet{}
		for _, a := range adds {
			c := CoreID(a % 1024)
			s.Add(c)
			ref[c] = true
		}
		snapshot := s // COW alias: must be unaffected by later mutation
		snapCount := s.Count()
		for _, r := range removes {
			c := CoreID(r % 1024)
			s.Remove(c)
			delete(ref, c)
		}
		if s.Count() != len(ref) || snapshot.Count() != snapCount {
			return false
		}
		for c := range ref {
			if !s.Contains(c) {
				return false
			}
		}
		ok := true
		s.ForEach(func(c CoreID) {
			if !ref[c] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func FuzzCoreSetWide(f *testing.F) {
	f.Add([]byte{63, 64, 127}, []byte{64})
	f.Add([]byte{0, 255, 128}, []byte{0, 255})
	f.Add([]byte{}, []byte{1})
	f.Fuzz(func(t *testing.T, adds, removes []byte) {
		var s CoreSet
		ref := refSet{}
		// Stretch byte input across the wide range: pairs of bytes make
		// IDs up to 1023.
		id := func(i int, b byte) CoreID { return CoreID((int(b)*8 + i) % 1024) }
		for i, b := range adds {
			c := id(i, b)
			s.Add(c)
			ref[c] = true
		}
		for i, b := range removes {
			c := id(i, b)
			s.Remove(c)
			delete(ref, c)
		}
		checkAgainstRef(t, s, ref)
	})
}

// wideBase returns a set over width cores holding every third core
// except width-1, so adding width-1 grows the top word and removing 0
// or 129 rewrites a lower one.
func wideBase(width int) CoreSet {
	var s CoreSet
	for c := 0; c < width-1; c += 3 {
		s.Add(CoreID(c))
	}
	s.Add(129 % CoreID(width))
	return s
}

// TestCoreSetWideUpdateAllocatesOnce pins the extension block's layout:
// an update touching a core ≥128 costs exactly one heap allocation (the
// length word and the words share it), and one that drops the last wide
// member frees the block instead of keeping an empty one.
func TestCoreSetWideUpdateAllocatesOnce(t *testing.T) {
	base := wideBase(1024)
	if n := testing.AllocsPerRun(100, func() {
		s := base
		s.Add(1023)
		sinkSet = s
	}); n != 1 {
		t.Fatalf("wide Add: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		s := base
		s.Remove(129)
		sinkSet = s
	}); n != 1 {
		t.Fatalf("wide Remove: %v allocs, want 1", n)
	}
	var s CoreSet
	s.Add(5)
	s.Add(900)
	s.Remove(900)
	if s.WordCount() != 2 || len(s.ExtWords()) != 0 || s.Count() != 1 {
		t.Fatalf("removing the only wide member left %d words (%v)", s.WordCount(), s)
	}
	s.Remove(5)
	if !s.Empty() {
		t.Fatalf("set %v not Empty", s)
	}
}

var (
	sinkSet  CoreSet
	sinkBool bool
)

// benchWidths are the socket widths the CoreSet benchmarks cover: the
// paper's 16-core socket, the widest all-inline set, and the 1024-core
// frontier, whose updates take the one-allocation extension path.
var benchWidths = []int{16, 128, 1024}

func BenchmarkCoreSetAdd(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("%dc", width), func(b *testing.B) {
			base := wideBase(width)
			c := CoreID(width - 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := base
				s.Add(c)
				sinkSet = s
			}
		})
	}
}

func BenchmarkCoreSetRemove(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("%dc", width), func(b *testing.B) {
			base := wideBase(width)
			c := 129 % CoreID(width)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := base
				s.Remove(c)
				sinkSet = s
			}
		})
	}
}

// BenchmarkCoreSetEqual compares two equal sets built separately, so a
// wide pair holds distinct extension blocks and compares word by word.
func BenchmarkCoreSetEqual(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("%dc", width), func(b *testing.B) {
			x, y := wideBase(width), wideBase(width)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkBool = x.Equal(y)
			}
		})
	}
}
