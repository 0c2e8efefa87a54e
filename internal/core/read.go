package core

import (
	"fmt"

	"repro/internal/coher"
	"repro/internal/llc"
	"repro/internal/sim"
)

// Read handles a GetS from core c: a data read or (code=true) an
// instruction fetch. It returns the completion time and the private
// state granted (S, or E when no other copies exist; code blocks are
// always granted S to accelerate code sharing, §III-A).
func (e *Engine) Read(t sim.Cycle, c coher.CoreID, addr coher.Addr, code bool) (done sim.Cycle, granted coher.PrivState) {
	e.stats.Reads++
	e.llc.Protect(addr)
	defer e.llc.Unprotect()
	e.record(coher.MsgGetS)
	bank := e.bankOf(addr)
	t1 := t + e.mesh.CoreToBank(c, bank) + e.p.QueueCycles + e.p.TagCycles
	v := e.llc.Probe(addr)
	v = e.maybeCorruptDE(t1, addr, v)
	ent, loc := e.findDE(addr, v)
	if e.hasAdmit && loc == locNone {
		charge := e.proto.Admit(t1, addr)
		if e.faultHooks != nil {
			if perturbed := e.faultHooks.AdmitFault(t1, addr, charge); perturbed != charge {
				e.stats.FaultNACKStorms++
				charge = perturbed
			}
		}
		t1 += charge
	}

	fwdBefore, memBefore := e.stats.Forwards3Hop, e.stats.LLCMisses
	switch {
	case loc != locNone && ent.State == coher.DirOwned:
		done, granted = e.readFromOwner(t1, c, addr, ent, v)
	case loc != locNone && ent.State == coher.DirShared:
		done, granted = e.readShared(t1, c, addr, ent, loc, v)
	default:
		done, granted = e.readNoDE(t1, c, addr, code, v)
	}
	// Classify the serving path for the latency breakdown: forwarded
	// (three-hop) beats memory beats LLC hit when several fired along a
	// corrupted-recovery chain.
	lat := uint64(done - t)
	switch {
	case e.stats.Forwards3Hop > fwdBefore:
		e.stats.LatReadForward += lat
		e.stats.NReadForward++
	case e.stats.LLCMisses > memBefore:
		e.stats.LatReadMemory += lat
		e.stats.NReadMemory++
	default:
		e.stats.LatReadLLCHit += lat
		e.stats.NReadLLCHit++
	}
	return done, granted
}

// readFromOwner serves a read whose block is owned by another core: the
// request is forwarded and the owner responds directly to the requester
// (three-hop path, §III-A). v is the current view of addr.
func (e *Engine) readFromOwner(t1 sim.Cycle, c coher.CoreID, addr coher.Addr, ent coher.Entry, v llc.View) (sim.Cycle, coher.PrivState) {
	owner := ent.Owner
	if owner == c {
		panic(fmt.Sprintf("core: core %d read-missed a block it owns (%#x)", c, uint64(addr)))
	}
	bank := e.bankOf(addr)
	e.record(coher.MsgFwd)
	e.stats.Forwards3Hop++
	t2 := t1 + e.mesh.BankToCore(bank, owner) + e.p.OwnerLookupCycles
	prev := e.cores[owner].Downgrade(addr)
	if prev != coher.PrivModified && prev != coher.PrivExclusive {
		panic(fmt.Sprintf("core: directory owner %d holds %#x in %v", owner, uint64(addr), prev))
	}
	e.record(coher.MsgData)      // owner → requester
	e.record(coher.MsgBusyClear) // owner → home (carries low bits under ZeroDEV)
	done := t2 + e.mesh.CoreToCore(owner, c)

	// Data movement accompanying the downgrade: a modified owner writes
	// the block back to the home LLC; an exclusive owner's data is clean,
	// but EPD allocates the now-shared block in the LLC to accelerate
	// future sharing (§III-E).
	if prev == coher.PrivModified {
		e.record(coher.MsgPutM)
		v = e.fillLLCData(t1, addr, true, v)
	} else if e.llc.Mode() == llc.EPD {
		v = e.fillLLCData(t1, addr, false, v)
	}

	var next coher.Entry
	next.State = coher.DirShared
	next.Sharers.Add(owner)
	next.Sharers.Add(c)
	e.storeDETouch(t1, addr, next, v)
	return done, coher.PrivShared
}

// readShared serves a read of a block in the shared state: from the LLC
// when a usable data line exists, otherwise forwarded to an elected
// sharer.
func (e *Engine) readShared(t1 sim.Cycle, c coher.CoreID, addr coher.Addr, ent coher.Entry, loc deLoc, v llc.View) (sim.Cycle, coher.PrivState) {
	bank := e.bankOf(addr)
	next := ent
	next.Sharers.Add(c)

	if e.usableData(v) {
		// The LLC can serve the read. Under SpillAll a co-resident spilled
		// entry is read out of the data array first, lengthening the
		// critical path by one data-array access; FPSS reads the block
		// first and updates the entry off the critical path (§III-C2).
		lat := e.p.DataCycles
		if loc == locLLC && e.spillAllPenalty {
			lat += e.p.DataCycles
			e.stats.SpillAllExtraDataReads++
		}
		e.stats.LLCDataHits++
		e.record(coher.MsgData)
		done := t1 + lat + e.mesh.BankToCore(bank, c)
		e.storeDETouch(t1, addr, next, v)
		return done, coher.PrivShared
	}

	// No usable LLC data: either the block is absent (directory hit, LLC
	// miss) or it is a FuseAll fused line whose block part is corrupted
	// (§III-C3). Forward to an elected sharer.
	e.stats.LLCMisses++
	f := ent.Sharers.First()
	if f == c {
		panic("core: requester already recorded as a sharer on a miss")
	}
	e.record(coher.MsgFwd)
	e.record(coher.MsgData)
	e.stats.Forwards3Hop++
	done := t1 + e.mesh.BankToCore(bank, f) + e.p.OwnerLookupCycles + e.mesh.CoreToCore(f, c)
	e.storeDETouch(t1, addr, next, v)
	return done, coher.PrivShared
}

// readNoDE serves a read with no directory entry on the socket: an
// uncore hit on the LLC block (case iii of §III-D2), a socket miss
// (case iv), or the rare corrupted fallbacks.
func (e *Engine) readNoDE(t1 sim.Cycle, c coher.CoreID, addr coher.Addr, code bool, v llc.View) (sim.Cycle, coher.PrivState) {
	bank := e.bankOf(addr)

	if e.usableData(v) {
		// Case iii. The LLC replacement extensions guarantee no holders
		// exist in the socket (sub-case iiia); under a policy without that
		// guarantee the home block may be corrupted with our segment live
		// (sub-case iiib), detected through the socket directory.
		if e.usesHomeSegments && e.home.Corrupted(addr) {
			if de, d0, ok := e.home.GetDE(t1, e.p.Socket, addr); ok {
				e.home.PutDE(t1, e.p.Socket, addr, coher.Entry{}) // segment consumed
				e.stats.CorruptedFetches++
				v = e.storeDE(d0, addr, e.reconcileImprecise(addr, de), v)
				return e.redispatchRead(d0, c, addr, v)
			}
		}
		e.stats.LLCDataHits++
		e.record(coher.MsgData)
		done := t1 + e.p.DataCycles + e.mesh.BankToCore(bank, c)
		granted := coher.PrivExclusive
		if code || e.home.SharedElsewhere(e.p.Socket, addr) {
			granted = coher.PrivShared
		}
		if granted == coher.PrivExclusive && e.llc.Mode() == llc.EPD {
			// The block becomes temporarily private: EPD deallocates it.
			e.llc.InvalidateData(v)
			v.DataWay = -1
		}
		e.storeDETouch(t1, addr, e.freshEntry(c, granted), v)
		return done, granted
	}

	// Case iv: socket miss.
	e.stats.LLCMisses++
	res := e.home.FetchBlock(t1, e.p.Socket, addr, false)
	if res.DE.Live() {
		// The home block was corrupted and carried our directory entry;
		// re-house it and finish as a directory hit with an LLC data miss.
		e.stats.CorruptedFetches++
		e.stats.CorruptedReadMisses++
		v = e.storeDE(res.Done, addr, e.reconcileImprecise(addr, res.DE), v)
		return e.redispatchRead(res.Done, c, addr, v)
	}
	granted := coher.PrivExclusive
	if code || res.SharedGrant {
		granted = coher.PrivShared
	}
	// Demand fills from memory allocate in the LLC (§III-A), except under
	// EPD where blocks granted in E stay exclusive to the private caches.
	if e.llc.Mode() != llc.EPD || granted == coher.PrivShared {
		v = e.fillLLCData(t1, addr, false, v)
	}
	e.record(coher.MsgData)
	done := res.Done + e.mesh.BankToCore(bank, c)
	e.storeDETouch(t1, addr, e.freshEntry(c, granted), v)
	return done, granted
}

// redispatchRead re-runs the directory-hit paths after a directory entry
// was recovered from a corrupted home block and re-housed; v is addr's
// view after the re-housing.
func (e *Engine) redispatchRead(t sim.Cycle, c coher.CoreID, addr coher.Addr, v llc.View) (sim.Cycle, coher.PrivState) {
	ent, loc := e.findDE(addr, v)
	switch {
	case loc != locNone && ent.State == coher.DirOwned:
		return e.readFromOwner(t, c, addr, ent, v)
	case loc != locNone && ent.State == coher.DirShared:
		return e.readShared(t, c, addr, ent, loc, v)
	default:
		panic("core: recovered directory entry vanished")
	}
}

// freshEntry builds the directory entry for a block newly granted to c.
func (e *Engine) freshEntry(c coher.CoreID, granted coher.PrivState) coher.Entry {
	var ent coher.Entry
	if granted == coher.PrivShared {
		ent.State = coher.DirShared
		ent.Sharers.Add(c)
	} else {
		ent.State = coher.DirOwned
		ent.Owner = c
	}
	return ent
}
