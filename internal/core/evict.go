package core

import (
	"fmt"

	"repro/internal/coher"
	"repro/internal/llc"
	"repro/internal/sim"
)

// Evict handles an eviction notice from core c for a block leaving its
// private hierarchy in the given state: PutS and PutE carry no data
// (PutE carries reconstruction low bits under ZeroDEV), PutM carries the
// full block. All evictions are notified to keep the directory precise
// (§III-A). The core does not block on evictions.
func (e *Engine) Evict(t sim.Cycle, c coher.CoreID, addr coher.Addr, state coher.PrivState) {
	e.stats.Evictions++
	e.llc.Protect(addr)
	defer e.llc.Unprotect()
	switch state {
	case coher.PrivShared:
		e.record(coher.MsgPutS)
	case coher.PrivExclusive:
		e.record(coher.MsgPutE)
	case coher.PrivModified:
		e.record(coher.MsgPutM)
	default:
		panic(fmt.Sprintf("core: eviction notice in state %v", state))
	}

	v := e.llc.Probe(addr)
	v = e.maybeCorruptDE(t, addr, v)
	ent, loc := e.findDE(addr, v)
	if loc == locNone {
		if e.faultHooks != nil {
			e.faultHooks.EvictNoDEFault(t, c, addr, state)
		}
		e.proto.EvictNoDE(t, c, addr, state, v)
		return
	}
	switch ent.State {
	case coher.DirOwned:
		if ent.Owner != c {
			panic(fmt.Sprintf("core: eviction by %d of %#x owned by %d", c, uint64(addr), ent.Owner))
		}
	case coher.DirShared:
		if !ent.Sharers.Contains(c) {
			panic(fmt.Sprintf("core: eviction by non-sharer %d of %#x", c, uint64(addr)))
		}
		if state != coher.PrivShared {
			panic(fmt.Sprintf("core: %v eviction of a shared-state block %#x", state, uint64(addr)))
		}
	}

	freed := ent.RemoveHolder(c)
	if (state == coher.PrivModified || state == coher.PrivExclusive) && !freed {
		panic("core: M/E eviction left other holders")
	}

	if !freed {
		e.storeDETouch(t, addr, ent, v)
		return
	}

	// The last private copy left the socket's cores.
	if e.faultHooks != nil {
		e.faultHooks.LastHolderGoneFault(t, addr, state)
	}
	e.proto.LastHolderGone(t, addr, state, v)
	v = e.freeDE(t, addr, state == coher.PrivModified, v)
	switch {
	case state == coher.PrivModified:
		// The dirty writeback allocates (or updates) the LLC line.
		e.fillLLCData(t, addr, true, v)
	case state == coher.PrivExclusive && e.llc.Mode() == llc.EPD:
		// EPD allocates the block in the LLC on owner eviction (§III-E).
		e.fillLLCData(t, addr, false, v)
	case !v.HasData():
		e.socketEvictNotice(t, addr)
	}
}

// socketEvictNotice informs home that this socket no longer holds the
// block anywhere; when home reports the memory copy corrupted and this
// was the system-wide last copy, the block travels back with the notice
// to restore memory (§III-D4).
func (e *Engine) socketEvictNotice(t sim.Cycle, addr coher.Addr) {
	e.stats.SocketEvictNotices++
	e.record(coher.MsgSocketEvict)
	if e.home.SocketEvict(t, e.p.Socket, addr) {
		e.stats.LastCopyRetrievals++
		e.record(coher.MsgPutM) // the full block travels to home
		e.home.WriteBack(t, e.p.Socket, addr)
	}
}

// maybeSocketEvict sends the socket-level eviction notice when the
// socket no longer holds the block anywhere: no directory entry
// (on-chip or in a home-memory segment), no LLC line. inLLC is whether
// addr has an LLC line, which every caller already knows from a view or
// the victim scan. Keeping the socket-level directory precise this way
// is what lets forwarded requests trust it (§III-D).
func (e *Engine) maybeSocketEvict(t sim.Cycle, addr coher.Addr, inLLC bool) {
	e.usingResidency(addr, inLLC)
	if inLLC {
		return
	}
	if _, ok := e.dir.Lookup(addr); ok {
		return // holders exist in the socket
	}
	if _, live := e.home.Segment(e.p.Socket, addr); live {
		return // holders exist; their entry lives in home memory
	}
	e.socketEvictNotice(t, addr)
}
