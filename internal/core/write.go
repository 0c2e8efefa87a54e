package core

import (
	"fmt"

	"repro/internal/coher"
	"repro/internal/llc"
	"repro/internal/sim"
)

// Write handles a GetX from core c: a store miss requesting the block
// in M state. Invalidation acknowledgements flow to the requester; the
// completion time is the later of the data arrival and the last ack.
func (e *Engine) Write(t sim.Cycle, c coher.CoreID, addr coher.Addr) sim.Cycle {
	e.stats.Writes++
	e.llc.Protect(addr)
	defer e.llc.Unprotect()
	e.record(coher.MsgGetX)
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

	switch {
	case loc != locNone && ent.State == coher.DirOwned:
		return e.writeFromOwner(t1, c, addr, ent, v)
	case loc != locNone && ent.State == coher.DirShared:
		return e.writeShared(t1, c, addr, ent, v)
	default:
		return e.writeNoDE(t1, c, addr, v)
	}
}

// writeFromOwner transfers ownership: the request is forwarded to the
// owner, which invalidates its copy and responds directly (three-hop).
func (e *Engine) writeFromOwner(t1 sim.Cycle, c coher.CoreID, addr coher.Addr, ent coher.Entry, v llc.View) sim.Cycle {
	owner := ent.Owner
	if owner == c {
		panic(fmt.Sprintf("core: core %d write-missed a block it owns (%#x)", c, uint64(addr)))
	}
	bank := e.bankOf(addr)
	e.record(coher.MsgFwd)
	e.stats.Forwards3Hop++
	t2 := t1 + e.mesh.BankToCore(bank, owner) + e.p.OwnerLookupCycles
	prev := e.cores[owner].Invalidate(addr)
	if prev != coher.PrivModified && prev != coher.PrivExclusive {
		panic(fmt.Sprintf("core: directory owner %d holds %#x in %v", owner, uint64(addr), prev))
	}
	e.stats.DemandInvals++
	e.record(coher.MsgData)      // owner → requester
	e.record(coher.MsgBusyClear) // owner → home
	done := t2 + e.mesh.CoreToCore(owner, c)

	e.storeDETouch(t1, addr, coher.Entry{State: coher.DirOwned, Owner: c}, v)
	return done
}

// writeShared invalidates all sharers and supplies the data, from the
// LLC when possible, otherwise from an elected sharer with the
// invalidation folded into the forward (§III-C3).
func (e *Engine) writeShared(t1 sim.Cycle, c coher.CoreID, addr coher.Addr, ent coher.Entry, v llc.View) sim.Cycle {
	if ent.Sharers.Contains(c) {
		panic("core: GetX from a core already sharing the block (should be an upgrade)")
	}
	bank := e.bankOf(addr)
	usableLLC := e.usableData(v)
	var elected coher.CoreID
	if !usableLLC {
		elected = ent.Sharers.First()
	}

	ackDone := t1
	ent.Sharers.ForEach(func(s coher.CoreID) {
		prev := e.cores[s].Invalidate(addr)
		if prev != coher.PrivShared {
			panic(fmt.Sprintf("core: sharer %d holds %#x in %v", s, uint64(addr), prev))
		}
		e.stats.DemandInvals++
		e.record(coher.MsgInv)
		e.record(coher.MsgInvAck)
		arr := t1 + e.mesh.BankToCore(bank, s) + 1 + e.mesh.CoreToCore(s, c)
		ackDone = max2(ackDone, arr)
	})

	var dataDone sim.Cycle
	if usableLLC {
		e.stats.LLCDataHits++
		e.record(coher.MsgData)
		dataDone = t1 + e.p.DataCycles + e.mesh.BankToCore(bank, c)
	} else {
		// Forward combined with the invalidation to the elected sharer:
		// the critical path matches the baseline (§III-C3).
		e.stats.LLCMisses++
		e.stats.Forwards3Hop++
		e.record(coher.MsgFwd)
		e.record(coher.MsgData)
		dataDone = t1 + e.mesh.BankToCore(bank, elected) + e.p.OwnerLookupCycles + e.mesh.CoreToCore(elected, c)
	}

	if e.llc.Mode() == llc.EPD {
		// The block becomes temporarily private: deallocate the data line.
		if v.HasData() && !v.Fused {
			e.llc.InvalidateData(v)
			v.DataWay = -1
		}
	}
	// Other sockets sharing the block must be invalidated before the
	// core takes it to M.
	acq := e.home.AcquireExclusive(t1, e.p.Socket, addr)
	e.storeDETouch(t1, addr, coher.Entry{State: coher.DirOwned, Owner: c}, v)
	return max2(max2(dataDone, ackDone), acq)
}

// writeNoDE serves a GetX with no directory entry on the socket.
func (e *Engine) writeNoDE(t1 sim.Cycle, c coher.CoreID, addr coher.Addr, v llc.View) sim.Cycle {
	bank := e.bankOf(addr)
	if e.usableData(v) {
		if e.usesHomeSegments && e.home.Corrupted(addr) {
			if de, d0, ok := e.home.GetDE(t1, e.p.Socket, addr); ok {
				e.home.PutDE(t1, e.p.Socket, addr, coher.Entry{})
				e.stats.CorruptedFetches++
				v = e.storeDE(d0, addr, e.reconcileImprecise(addr, de), v)
				return e.redispatchWrite(d0, c, addr, v)
			}
		}
		e.stats.LLCDataHits++
		e.record(coher.MsgData)
		done := t1 + e.p.DataCycles + e.mesh.BankToCore(bank, c)
		if e.llc.Mode() == llc.EPD {
			e.llc.InvalidateData(v)
			v.DataWay = -1
		}
		done = max2(done, e.home.AcquireExclusive(t1, e.p.Socket, addr))
		e.storeDETouch(t1, addr, coher.Entry{State: coher.DirOwned, Owner: c}, v)
		return done
	}
	e.stats.LLCMisses++
	res := e.home.FetchBlock(t1, e.p.Socket, addr, true)
	if res.DE.Live() {
		e.stats.CorruptedFetches++
		v = e.storeDE(res.Done, addr, e.reconcileImprecise(addr, res.DE), v)
		return e.redispatchWrite(res.Done, c, addr, v)
	}
	if e.llc.Mode() != llc.EPD {
		v = e.fillLLCData(t1, addr, false, v)
	}
	e.record(coher.MsgData)
	done := res.Done + e.mesh.BankToCore(bank, c)
	e.storeDETouch(t1, addr, coher.Entry{State: coher.DirOwned, Owner: c}, v)
	return done
}

// redispatchWrite is redispatchRead for GetX.
func (e *Engine) redispatchWrite(t sim.Cycle, c coher.CoreID, addr coher.Addr, v llc.View) sim.Cycle {
	ent, loc := e.findDE(addr, v)
	switch {
	case loc != locNone && ent.State == coher.DirOwned:
		return e.writeFromOwner(t, c, addr, ent, v)
	case loc != locNone && ent.State == coher.DirShared:
		return e.writeShared(t, c, addr, ent, v)
	default:
		panic("core: recovered directory entry vanished")
	}
}

// Upgrade handles an S→M upgrade: the requester already holds the block
// in S; other sharers are invalidated and a dataless response carries
// the expected ack count.
func (e *Engine) Upgrade(t sim.Cycle, c coher.CoreID, addr coher.Addr) sim.Cycle {
	e.stats.Upgrades++
	e.llc.Protect(addr)
	defer e.llc.Unprotect()
	e.record(coher.MsgUpg)
	bank := e.bankOf(addr)
	t1 := t + e.mesh.CoreToBank(c, bank) + e.p.QueueCycles + e.p.TagCycles
	v := e.llc.Probe(addr)
	v = e.maybeCorruptDE(t1, addr, v)
	ent, loc := e.findDE(addr, v)

	if loc == locNone {
		// ZeroDEV: the entry may live in home memory (corrupted block).
		if e.usesHomeSegments && e.home.Corrupted(addr) {
			if de, d0, ok := e.home.GetDE(t1, e.p.Socket, addr); ok {
				e.home.PutDE(t1, e.p.Socket, addr, coher.Entry{})
				e.stats.CorruptedFetches++
				v = e.storeDE(d0, addr, e.reconcileImprecise(addr, de), v)
				ent, loc = e.findDE(addr, v)
				t1 = d0
			}
		}
		if loc == locNone {
			panic(fmt.Sprintf("core: upgrade for %#x with no directory entry", uint64(addr)))
		}
	}
	if ent.State != coher.DirShared || !ent.Sharers.Contains(c) {
		panic(fmt.Sprintf("core: upgrade for %#x in state %v without requester sharing", uint64(addr), ent.State))
	}

	// For upgrades only the entry is read out; when it is housed in the
	// LLC data array that costs one data-array access (§III-C2). DLS
	// entries live tag-side, already covered by the tag lookup.
	deLat := sim.Cycle(0)
	if loc == locLLC && e.deInDataArray {
		deLat = e.p.DataCycles
	}

	ackDone := t1
	ent.Sharers.ForEach(func(s coher.CoreID) {
		if s == c {
			return
		}
		prev := e.cores[s].Invalidate(addr)
		if prev != coher.PrivShared {
			panic(fmt.Sprintf("core: sharer %d holds %#x in %v", s, uint64(addr), prev))
		}
		e.stats.DemandInvals++
		e.record(coher.MsgInv)
		e.record(coher.MsgInvAck)
		arr := t1 + e.mesh.BankToCore(bank, s) + 1 + e.mesh.CoreToCore(s, c)
		ackDone = max2(ackDone, arr)
	})
	e.record(coher.MsgDataless)
	done := max2(t1+deLat+e.mesh.BankToCore(bank, c), ackDone)
	done = max2(done, e.home.AcquireExclusive(t1, e.p.Socket, addr))

	if e.llc.Mode() == llc.EPD {
		if v.HasData() && !v.Fused {
			e.llc.InvalidateData(v)
			v.DataWay = -1
		}
	}
	e.storeDETouch(t1, addr, coher.Entry{State: coher.DirOwned, Owner: c}, v)
	return done
}
