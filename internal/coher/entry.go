package coher

import "fmt"

// Entry is a sparse-directory entry: the stable coherence state and the
// location(s) of a block that is privately cached by at least one core.
// The one-byte fields lead so the whole entry packs into 32 bytes.
type Entry struct {
	// State is the stable directory state. DirInvalid means the entry is
	// free (no private copies remain).
	State DirState
	// Busy marks a transient/pending transaction (e.g. a forwarded request
	// awaiting the owner's "busy clear" message).
	Busy bool
	// Imprecise marks a DirShared entry whose Sharers is a superset of
	// the true holders — the result of decoding a coarse-compressed
	// home-memory segment (wide sockets where a full map no longer fits
	// the segment budget). The engine reconciles imprecise entries
	// against actual core states before acting on them; at ≤128 cores
	// the flag is never set.
	Imprecise bool
	// Owner is meaningful only in DirOwned state: the single core holding
	// the block in M or E.
	Owner CoreID
	// Sharers is meaningful only in DirShared state: the read-only copy
	// holders.
	Sharers CoreSet
}

// Same reports field-wise equality, including fields the current state
// makes meaningless. == would compare CoreSet's extension pointers, not
// their words, so Same is the literal replacement. Use
// state-projected comparisons (AppendCanonical) when stale fields must
// not matter.
func (e Entry) Same(o Entry) bool {
	return e.State == o.State && e.Owner == o.Owner && e.Busy == o.Busy &&
		e.Imprecise == o.Imprecise && e.Sharers.Equal(o.Sharers)
}

// Live reports whether the entry tracks at least one private copy.
func (e Entry) Live() bool {
	return e.State != DirInvalid
}

// Holders returns the set of cores holding a private copy, regardless of
// state.
func (e Entry) Holders() CoreSet {
	switch e.State {
	case DirOwned:
		var s CoreSet
		s.Add(e.Owner)
		return s
	case DirShared:
		return e.Sharers
	}
	return CoreSet{}
}

// RemoveHolder drops core c from the entry, transitioning to DirInvalid
// when the last holder leaves. It reports whether the entry became free.
func (e *Entry) RemoveHolder(c CoreID) (freed bool) {
	switch e.State {
	case DirOwned:
		if e.Owner == c {
			e.State = DirInvalid
			return true
		}
	case DirShared:
		e.Sharers.Remove(c)
		if e.Sharers.Empty() {
			e.State = DirInvalid
			return true
		}
	}
	return false
}

// String renders the entry for debugging.
func (e Entry) String() string {
	switch e.State {
	case DirOwned:
		return fmt.Sprintf("M/E owner=%d busy=%v", e.Owner, e.Busy)
	case DirShared:
		return fmt.Sprintf("S sharers=%v busy=%v", e.Sharers, e.Busy)
	}
	return "I"
}

// StorageBits returns the number of bits a stable full-map entry occupies
// when housed in a home-memory segment: N sharer bits plus one state bit
// distinguishing M/E from S (paper §III-D: "a valid intra-socket sparse
// directory entry in a stable state would require N+1 bits").
func StorageBits(cores int) int {
	return cores + 1
}

// MaxSocketsFullMap returns the number of per-socket directory-entry
// segments a 64-byte memory block can hold for the given per-socket core
// count: ⌊512/(N+1)⌋ (paper §III-D).
func MaxSocketsFullMap(coresPerSocket int) int {
	return BlockBits / StorageBits(coresPerSocket)
}

// MaxSocketsWithSocketPartition returns the socket-count bound when the
// memory block additionally reserves a partition for an evicted
// socket-level directory entry: the largest M with 512 >= M(N+1)+(M+2),
// i.e. M = ⌊510/(N+2)⌋ (paper §III-D5, solution 2).
func MaxSocketsWithSocketPartition(coresPerSocket int) int {
	return (BlockBits - 2) / (StorageBits(coresPerSocket) + 1)
}

// AppendCanonical appends a canonical byte encoding of the entry's
// protocol-visible state to buf, for state fingerprinting. Fields that
// are meaningless in the current state are projected away — a DirOwned
// entry may carry stale Sharers bits from an earlier shared epoch (and
// vice versa), and two such entries must fingerprint identically
// because the protocol can never observe the difference.
//
// Wide state uses the tag byte's spare bits, so every fingerprint taken
// at ≤128 cores is byte-identical to the fixed-width encoding: 0x40
// marks a second owner byte (owner ≥ 256), 0x20 marks extension sharer
// words (a sharer ≥ 128), 0x10 marks an imprecise sharer set. All three
// are zero in any configuration the paper evaluates.
func (e Entry) AppendCanonical(buf []byte) []byte {
	tag := byte(e.State)
	if e.Busy {
		tag |= 0x80
	}
	var ext []uint64
	switch e.State {
	case DirOwned:
		if e.Owner >= 256 {
			tag |= 0x40
		}
	case DirShared:
		ext = e.Sharers.ExtWords()
		if len(ext) > 0 {
			tag |= 0x20
		}
		if e.Imprecise {
			tag |= 0x10
		}
	}
	buf = append(buf, tag)
	switch e.State {
	case DirOwned:
		buf = append(buf, byte(e.Owner))
		if e.Owner >= 256 {
			buf = append(buf, byte(e.Owner>>8))
		}
	case DirShared:
		lo, hi := e.Sharers.Words()
		for _, w := range [2]uint64{lo, hi} {
			buf = append(buf,
				byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
				byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
		}
		if len(ext) > 0 {
			buf = append(buf, byte(len(ext)))
			for _, w := range ext {
				buf = append(buf,
					byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
					byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
			}
		}
	}
	return buf
}
