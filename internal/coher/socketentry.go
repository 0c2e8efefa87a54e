package coher

import "math/bits"

// SocketSet is a sharer bit-vector over sockets. Socket counts are small
// (the paper evaluates four; the full-map segment scheme bounds them at
// ⌊512/(N+1)⌋), so a single word suffices and bounds a system at
// MaxSockets.
type SocketSet uint64

// MaxSockets is the largest socket count a SocketSet can track.
const MaxSockets = 64

// Add inserts socket s.
func (v *SocketSet) Add(s int) { *v |= 1 << s }

// Remove deletes socket s.
func (v *SocketSet) Remove(s int) { *v &^= 1 << s }

// Contains reports membership.
func (v SocketSet) Contains(s int) bool { return v&(1<<s) != 0 }

// Count returns the number of member sockets.
func (v SocketSet) Count() int { return bits.OnesCount64(uint64(v)) }

// Empty reports whether the set has no members.
func (v SocketSet) Empty() bool { return v == 0 }

// First returns the lowest member; panics on empty.
func (v SocketSet) First() int {
	if v == 0 {
		panic("coher: First on empty SocketSet")
	}
	return bits.TrailingZeros64(uint64(v))
}

// ForEach visits members in ascending order.
func (v SocketSet) ForEach(fn func(int)) {
	w := uint64(v)
	for w != 0 {
		b := bits.TrailingZeros64(w)
		fn(b)
		w &^= 1 << b
	}
}

// SocketState is the state of a socket-level directory entry. The paper
// encodes three stable states in two bits and uses the fourth encoding
// for Corrupted (home memory block holds directory entries, not data).
type SocketState uint8

const (
	// SockInvalid: no socket caches the block.
	SockInvalid SocketState = iota
	// SockShared: one or more sockets hold the block read-only.
	SockShared
	// SockOwned: one socket owns the block (M/E).
	SockOwned
	// SockCorrupted: the home memory copy has been overwritten by one or
	// more evicted intra-socket directory entries; the sharer vector still
	// records which sockets hold copies.
	SockCorrupted
)

// String implements fmt.Stringer.
func (s SocketState) String() string {
	switch s {
	case SockInvalid:
		return "I"
	case SockShared:
		return "S"
	case SockOwned:
		return "M/E"
	case SockCorrupted:
		return "Corrupted"
	}
	return "SocketState(?)"
}

// SocketEntry is a socket-level directory entry for inter-socket
// coherence. SocketSet bounds a system at MaxSockets, so the owner fits
// a byte and the entry is 16 bytes.
type SocketEntry struct {
	State   SocketState
	Owner   uint8
	Sharers SocketSet
}

// Holders returns the sockets holding a copy regardless of state. In the
// Corrupted state the sharer vector is authoritative (the state before
// corruption is folded into it).
func (e SocketEntry) Holders() SocketSet {
	switch e.State {
	case SockOwned:
		var v SocketSet
		v.Add(int(e.Owner))
		return v
	case SockShared, SockCorrupted:
		return e.Sharers
	}
	return 0
}

// Live reports whether any socket holds a copy.
func (e SocketEntry) Live() bool { return e.State != SockInvalid }

// StorageBitsSocket is the home-memory partition size for an evicted
// socket-level entry in an M-socket system: M sharer bits plus two state
// bits (paper §III-D5, solution 2).
func StorageBitsSocket(sockets int) int { return sockets + 2 }
