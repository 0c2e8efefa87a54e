package core

import (
	"fmt"

	"repro/internal/coher"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
)

// FetchResult is the outcome of a socket-miss fetch from home.
type FetchResult struct {
	// Done is when the data (or corrupted block) arrives at the
	// requesting socket's LLC bank.
	Done sim.Cycle
	// DE is live when home returned a corrupted block and the requesting
	// socket extracted its own intra-socket directory entry from it
	// (paper Fig. 15, step 3 / §III-D2 fallback). The protocol then
	// proceeds as a directory hit with an LLC data miss. Carried by value
	// so a corrupted fetch allocates nothing.
	DE coher.Entry
	// ServedBySocket is true when another socket supplied the data
	// (multi-socket three-hop path); the home memory was not read.
	ServedBySocket bool
	// SharedGrant is true when other sockets retain copies, so the
	// requesting socket may only grant S to its core (an E grant would
	// permit a silent E→M upgrade invisible to the other sockets).
	SharedGrant bool
}

// Home is the memory-side agent of a socket's protocol engine: it hides
// whether the system is single-socket (LocalHome: the socket directory
// is degenerate and every flow ends at DRAM) or multi-socket (package
// socket implements the full inter-socket protocol of Figs. 14-16).
type Home interface {
	// FetchBlock serves a socket miss (case iv of §III-D2). exclusive
	// requests socket-level ownership.
	FetchBlock(t sim.Cycle, socket int, addr coher.Addr, exclusive bool) FetchResult

	// WriteBack delivers a full-block writeback to home memory,
	// restoring a corrupted block if any.
	WriteBack(t sim.Cycle, socket int, addr coher.Addr)

	// WBDE executes the directory-entry writeback flow of Fig. 14.
	WBDE(t sim.Cycle, socket int, addr coher.Addr, e coher.Entry)

	// GetDE executes steps 3-4 of Fig. 16: fetch the corrupted home
	// block and extract this socket's directory entry. ok is false when
	// home holds no entry for the socket (a protocol invariant
	// violation, surfaced for tests).
	GetDE(t sim.Cycle, socket int, addr coher.Addr) (e coher.Entry, done sim.Cycle, ok bool)

	// PutDE writes the updated directory entry back (step 6 of Fig. 16).
	// A dead entry clears the socket's segment.
	PutDE(t sim.Cycle, socket int, addr coher.Addr, e coher.Entry)

	// SocketEvict notifies home that the socket evicted its last copy of
	// addr (and the block is not LLC-resident there). retrieveBlock is
	// true when home needs the block back from the evicting core because
	// the home memory copy is corrupted and this was the system-wide
	// last copy (§III-D4).
	SocketEvict(t sim.Cycle, socket int, addr coher.Addr) (retrieveBlock bool)

	// Corrupted reports whether the home memory copy of addr is
	// currently invalid. The engine consults this in the rare
	// sub-case (iiib) fallback.
	Corrupted(addr coher.Addr) bool

	// Segment peeks at the live directory entry home memory holds for
	// the given socket, if any (i.e., the socket still has private
	// holders whose tracking lives off-chip). The engine uses it when
	// deciding whether a clean LLC line of a corrupted block may be
	// silently dropped, and the invariant checker cross-validates it
	// against ground truth.
	Segment(socket int, addr coher.Addr) (coher.Entry, bool)

	// AcquireExclusive makes the socket the sole holder at the socket
	// level before a core takes the block to M (intra-socket upgrade or
	// write to a socket-shared block): other sockets' copies are
	// invalidated. It returns when the socket-level acknowledgement
	// arrives.
	AcquireExclusive(t sim.Cycle, socket int, addr coher.Addr) sim.Cycle

	// SharedElsewhere reports whether any other socket currently holds a
	// copy, deciding E vs S grants for uncore hits.
	SharedElsewhere(socket int, addr coher.Addr) bool
}

// LocalHome is the single-socket home agent: socket-level coherence is
// degenerate (socket 0 either holds the block or nobody does), and all
// flows terminate at the DRAM model and the home-memory metadata.
type LocalHome struct {
	mem  *mem.Memory
	dram *dram.DRAM
}

// NewLocalHome wires a single-socket home agent.
func NewLocalHome(m *mem.Memory, d *dram.DRAM) *LocalHome {
	return &LocalHome{mem: m, dram: d}
}

// Mem exposes the home-memory metadata for invariant checks.
func (h *LocalHome) Mem() *mem.Memory { return h.mem }

// DRAM exposes the memory timing model for stats.
func (h *LocalHome) DRAM() *dram.DRAM { return h.dram }

// FetchBlock implements Home.
func (h *LocalHome) FetchBlock(t sim.Cycle, socket int, addr coher.Addr, exclusive bool) FetchResult {
	if !h.mem.Corrupted(addr) {
		return FetchResult{Done: h.dram.Read(t, uint64(addr), dram.KindData)}
	}
	// Corrupted home block on a socket miss: in a single-socket system
	// the requesting socket is necessarily the holder, so it extracts
	// its own directory entry from the returned block (one extra cycle,
	// Fig. 15 step 3) and the entry is re-housed on chip.
	e, ok := h.mem.ReadSegment(addr, socket)
	if !ok {
		panic(fmt.Sprintf("core: corrupted block %#x with no segment for socket %d on a socket miss",
			uint64(addr), socket))
	}
	done := h.dram.Read(t, uint64(addr), dram.KindDE) + 1
	h.mem.ClearSegment(addr, socket)
	return FetchResult{Done: done, DE: e}
}

// WriteBack implements Home.
func (h *LocalHome) WriteBack(t sim.Cycle, socket int, addr coher.Addr) {
	h.dram.Write(t, uint64(addr), dram.KindData)
	h.mem.Restore(addr)
}

// WBDE implements Home.
func (h *LocalHome) WBDE(t sim.Cycle, socket int, addr coher.Addr, e coher.Entry) {
	// Single socket: the block's segment layout has only our slot, so the
	// prepared 64-byte block is written directly (no read-modify-write).
	h.dram.Write(t, uint64(addr), dram.KindDE)
	if err := h.mem.WriteSegment(addr, socket, e); err != nil {
		panic("core: " + err.Error())
	}
}

// GetDE implements Home.
func (h *LocalHome) GetDE(t sim.Cycle, socket int, addr coher.Addr) (coher.Entry, sim.Cycle, bool) {
	e, ok := h.mem.ReadSegment(addr, socket)
	if !ok {
		return coher.Entry{}, t, false
	}
	done := h.dram.Read(t, uint64(addr), dram.KindDE) + 1
	return e, done, true
}

// PutDE implements Home.
func (h *LocalHome) PutDE(t sim.Cycle, socket int, addr coher.Addr, e coher.Entry) {
	h.dram.Write(t, uint64(addr), dram.KindDE)
	if e.Live() {
		if err := h.mem.WriteSegment(addr, socket, e); err != nil {
			panic("core: " + err.Error())
		}
		return
	}
	h.mem.ClearSegment(addr, socket)
}

// SocketEvict implements Home.
func (h *LocalHome) SocketEvict(t sim.Cycle, socket int, addr coher.Addr) bool {
	// Single socket: if the memory copy is corrupted, the evicting core
	// holds the system-wide last copy and must send it back (§III-D4).
	return h.mem.Corrupted(addr)
}

// Corrupted implements Home.
func (h *LocalHome) Corrupted(addr coher.Addr) bool { return h.mem.Corrupted(addr) }

// Segment implements Home.
func (h *LocalHome) Segment(socket int, addr coher.Addr) (coher.Entry, bool) {
	return h.mem.ReadSegment(addr, socket)
}

// AcquireExclusive implements Home: a single socket is always exclusive.
func (h *LocalHome) AcquireExclusive(t sim.Cycle, socket int, addr coher.Addr) sim.Cycle {
	return t
}

// SharedElsewhere implements Home: no other sockets exist.
func (h *LocalHome) SharedElsewhere(int, coher.Addr) bool { return false }
