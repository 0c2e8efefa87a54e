package coher

import (
	"math/bits"
	"slices"
	"strings"
	"unsafe"
)

// CoreSet is a width-parameterized sharer bit-vector. Cores 0..127 live
// in two inline words, so every configuration the paper evaluates
// (≤128 cores per socket) is tracked with zero heap allocation and the
// exact representation the original fixed-width set used. Members ≥128
// spill into ext, an immutable extension block of 64-bit words.
//
// ext points at a single heap allocation: a length word followed by
// that many extension words (cores 128+, low word first). A pointer
// rather than a slice header keeps CoreSet at 24 bytes, and with it
// coher.Entry at 32 and every LLC way's payload at 40 — every LLC way
// carries an Entry, data lines included. Only this file reads the
// block, through extWords.
//
// ext is copy-on-write: mutators never write into an existing block,
// they build a fresh one with exactly one allocation. Entry values are
// copied freely throughout the engine (`next := ent; next.Sharers.Add(c)`),
// and the COW discipline makes those copies behave like independent
// values even though the pointer is shared at copy time.
//
// The representation is canonical: ext is nil when no member ≥128
// exists and never carries trailing zero words, so Equal can compare
// structurally.
//
// The zero value is the empty set.
type CoreSet struct {
	w   [inlineWords]uint64
	ext *uint64 // length word, then words 2+; immutable once published; no trailing zeros
}

// inlineWords is how many 64-bit words live inline; core 128 is the
// first ext-resident member.
const inlineWords = 2

// newExt allocates a zeroed extension block of n ≥ 1 words in one
// allocation and returns its header pointer and its words.
func newExt(n int) (*uint64, []uint64) {
	block := make([]uint64, n+1)
	block[0] = uint64(n)
	return &block[0], block[1:]
}

// extWords returns the extension words (nil when there are none). The
// slice aliases the set's immutable block; callers must not write it.
func (s CoreSet) extWords() []uint64 {
	if s.ext == nil {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Add(unsafe.Pointer(s.ext), 8)), *s.ext)
}

// Add inserts core c.
func (s *CoreSet) Add(c CoreID) {
	wi := int(c >> 6)
	bit := uint64(1) << (c & 63)
	if wi < inlineWords {
		s.w[wi] |= bit
		return
	}
	ei := wi - inlineWords
	old := s.extWords()
	if ei < len(old) && old[ei]&bit != 0 {
		return
	}
	p, ext := newExt(max(len(old), ei+1))
	copy(ext, old)
	ext[ei] |= bit
	s.ext = p
}

// Remove deletes core c; removing an absent core is a no-op.
func (s *CoreSet) Remove(c CoreID) {
	wi := int(c >> 6)
	bit := uint64(1) << (c & 63)
	if wi < inlineWords {
		s.w[wi] &^= bit
		return
	}
	ei := wi - inlineWords
	old := s.extWords()
	if ei >= len(old) || old[ei]&bit == 0 {
		return
	}
	// The old block has no trailing zeros, so only clearing its top word
	// can leave some: trim that word and any zero words beneath it.
	n := len(old)
	if ei == n-1 && old[ei]&^bit == 0 {
		n--
		for n > 0 && old[n-1] == 0 {
			n--
		}
	}
	if n == 0 {
		s.ext = nil
		return
	}
	p, ext := newExt(n)
	copy(ext, old[:n])
	if ei < n {
		ext[ei] &^= bit
	}
	s.ext = p
}

// Contains reports whether core c is in the set.
func (s CoreSet) Contains(c CoreID) bool {
	wi := int(c >> 6)
	if wi < inlineWords {
		return s.w[wi]&(1<<(c&63)) != 0
	}
	ext := s.extWords()
	ei := wi - inlineWords
	return ei < len(ext) && ext[ei]&(1<<(c&63)) != 0
}

// Count returns the number of cores in the set.
func (s CoreSet) Count() int {
	n := bits.OnesCount64(s.w[0]) + bits.OnesCount64(s.w[1])
	for _, w := range s.extWords() {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s CoreSet) Empty() bool {
	return s.w[0] == 0 && s.w[1] == 0 && s.ext == nil
}

// First returns the lowest-numbered member. It panics on an empty set;
// callers must check Empty first.
func (s CoreSet) First() CoreID {
	if s.w[0] != 0 {
		return CoreID(bits.TrailingZeros64(s.w[0]))
	}
	if s.w[1] != 0 {
		return CoreID(64 + bits.TrailingZeros64(s.w[1]))
	}
	for ei, w := range s.extWords() {
		if w != 0 {
			return CoreID((inlineWords+ei)*64 + bits.TrailingZeros64(w))
		}
	}
	panic("coher: First on empty CoreSet")
}

// ForEach calls fn for each member in ascending order.
func (s CoreSet) ForEach(fn func(CoreID)) {
	for wi, w := range s.w {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(CoreID(wi*64 + b))
			w &^= 1 << b
		}
	}
	for ei, w := range s.extWords() {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(CoreID((inlineWords+ei)*64 + b))
			w &^= 1 << b
		}
	}
}

// Members returns the members in ascending order.
func (s CoreSet) Members() []CoreID {
	out := make([]CoreID, 0, s.Count())
	s.ForEach(func(c CoreID) { out = append(out, c) })
	return out
}

// Clear empties the set.
func (s *CoreSet) Clear() {
	s.w[0], s.w[1] = 0, 0
	s.ext = nil
}

// Equal reports whether two sets have identical membership. The
// canonical ext representation (nil when empty, no trailing zero words)
// makes structural comparison exact.
func (s CoreSet) Equal(o CoreSet) bool {
	return s.w == o.w && slices.Equal(s.extWords(), o.extWords())
}

// Superset reports whether every member of o is also in s.
func (s CoreSet) Superset(o CoreSet) bool {
	if o.w[0]&^s.w[0] != 0 || o.w[1]&^s.w[1] != 0 {
		return false
	}
	se := s.extWords()
	for i, w := range o.extWords() {
		var sw uint64
		if i < len(se) {
			sw = se[i]
		}
		if w&^sw != 0 {
			return false
		}
	}
	return true
}

// Words exposes the low 128 bits of the representation (low word
// first), used by the bit-exact line encodings for ≤128-core sockets.
func (s CoreSet) Words() (lo, hi uint64) {
	return s.w[0], s.w[1]
}

// SetWords overwrites the representation with a ≤128-core bit-vector,
// dropping any extension words.
func (s *CoreSet) SetWords(lo, hi uint64) {
	s.w[0], s.w[1] = lo, hi
	s.ext = nil
}

// WordCount returns the number of 64-bit words needed to hold the set's
// highest member (at least the two inline words).
func (s CoreSet) WordCount() int {
	return inlineWords + len(s.extWords())
}

// Word returns the i-th 64-bit word of the representation (word 0 holds
// cores 0..63). Indices past WordCount-1 read as zero.
func (s CoreSet) Word(i int) uint64 {
	if i < inlineWords {
		return s.w[i]
	}
	if ext := s.extWords(); i-inlineWords < len(ext) {
		return ext[i-inlineWords]
	}
	return 0
}

// ExtWords exposes the extension words (cores 128+, low word first) for
// the fingerprint and line encoders. Callers must treat the returned
// slice as read-only; it aliases the set's immutable storage.
func (s CoreSet) ExtWords() []uint64 {
	return s.extWords()
}

// SetFromWords overwrites the representation from a word slice (word 0
// holds cores 0..63), canonicalizing trailing zero words. The slice is
// copied; the caller keeps ownership.
func (s *CoreSet) SetFromWords(words []uint64) {
	s.w[0], s.w[1] = 0, 0
	s.ext = nil
	if len(words) > 0 {
		s.w[0] = words[0]
	}
	if len(words) > 1 {
		s.w[1] = words[1]
	}
	rest := words[min(len(words), inlineWords):]
	for len(rest) > 0 && rest[len(rest)-1] == 0 {
		rest = rest[:len(rest)-1]
	}
	if len(rest) > 0 {
		p, ext := newExt(len(rest))
		copy(ext, rest)
		s.ext = p
	}
}

// String renders the set as {c0,c3,...} for debugging.
func (s CoreSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(c CoreID) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmtUint(&b, uint64(c))
	})
	b.WriteByte('}')
	return b.String()
}

func fmtUint(b *strings.Builder, v uint64) {
	if v >= 10 {
		fmtUint(b, v/10)
	}
	b.WriteByte(byte('0' + v%10))
}
