package sched

import (
	"repro/internal/program"
	"repro/internal/tta"
)

// allocReg claims a free register, preferring the register file with the
// most free capacity (balances pressure across RF1/RF2).
func (s *scheduler) allocReg(cycle int) (RegLoc, bool) {
	best, bestFree := -1, 0
	for i, free := range s.rfFreeN {
		if free > bestFree {
			best, bestFree = i, free
		}
	}
	if best < 0 {
		return RegLoc{-1, -1}, false
	}
	for j, f := range s.rfFree[best] {
		if f {
			s.rfFree[best][j] = false
			s.rfFreeN[best]--
			s.live++
			if s.live > s.peakLive {
				s.peakLive = s.live
			}
			return RegLoc{RF: s.rfs[best], Reg: j}, true
		}
	}
	return RegLoc{-1, -1}, false
}

func (s *scheduler) freeReg(loc RegLoc) {
	if loc.RF < 0 {
		return
	}
	pos := s.rfIndex[loc.RF]
	if pos >= 0 && !s.rfFree[pos][loc.Reg] {
		s.rfFree[pos][loc.Reg] = true
		s.rfFreeN[pos]++
		s.live--
	}
}

// sourceReadable reports whether value v can be read at the current cycle
// and, if so, which endpoint supplies it (without committing resources).
func (s *scheduler) sourceReadable(v program.ValueID, cycle int) (Endpoint, bool) {
	vs := &s.vals[v]
	if vs.isConst {
		for _, imm := range s.imms {
			if s.immUsed[imm] == 0 {
				return Endpoint{Comp: imm, Port: s.ports[imm].out[0], Reg: -1, Imm: vs.constVal}, true
			}
		}
		return Endpoint{}, false
	}
	if !vs.alloc || vs.readyAt > cycle {
		return Endpoint{}, false
	}
	rf := vs.loc.RF
	c := &s.arch.Components[rf]
	if s.rfReads[rf] >= c.NumOut {
		return Endpoint{}, false
	}
	outs := s.ports[rf].out
	port := outs[s.rfReads[rf]%len(outs)]
	return Endpoint{Comp: rf, Port: port, Reg: vs.loc.Reg}, true
}

// commitRead consumes the per-cycle resources of a scheduled read and
// releases the register after the value's last use.
func (s *scheduler) commitRead(v program.ValueID, src Endpoint) {
	vs := &s.vals[v]
	if vs.isConst {
		s.immUsed[src.Comp]++
		return
	}
	s.rfReads[src.Comp]++
	vs.usesLeft--
	if vs.usesLeft == 0 {
		s.freeReg(vs.loc)
		vs.alloc = false
	}
}

// fuFor returns a free function unit executing the op class, or -1.
func (s *scheduler) fuFor(class program.Class, cycle int) int {
	var kind tta.Kind
	switch class {
	case program.ClassALU:
		kind = tta.ALU
	case program.ClassCMP:
		kind = tta.CMP
	default:
		kind = tta.LDST
	}
	for _, fu := range s.fusOf(kind) {
		if s.fuBusyBy[fu] < cycle {
			return fu
		}
	}
	return -1
}

func portOf(c *tta.Component, role tta.PortRole) int {
	for i, p := range c.Ports {
		if p.Role == role {
			return i
		}
	}
	return -1
}

// tryStart begins an op: the operand move (and, resources permitting, the
// trigger in the same cycle). Loads have no separate operand move; their
// address move is the trigger itself. When an operand has not been
// produced yet, tryStart returns it (the op cannot start before its
// producer finishes, and trying again changes nothing); otherwise it
// returns NoValue, whether or not the op started.
func (s *scheduler) tryStart(oi int, cycle int) (waitOn program.ValueID) {
	op := &s.g.Ops[oi]
	st := &s.ops[oi]

	// Dataflow readiness (cheap pre-checks before resource commitment).
	for _, ref := range []program.ValueID{op.A, op.B} {
		if ref == program.NoValue {
			continue
		}
		vs := &s.vals[ref]
		if !vs.isConst && (!vs.alloc || vs.readyAt > cycle) {
			if !vs.alloc {
				if vs.spillSlot < 0 {
					return ref
				}
				s.requestReload(ref)
			}
			return program.NoValue
		}
	}
	if op.MemPred != program.NoValue {
		pst := &s.ops[op.MemPred]
		if pst.tTrig < 0 {
			return program.NoValue
		}
	}

	fu := s.fuFor(op.Op.Class(), cycle)
	if fu == -1 {
		return program.NoValue
	}

	if op.Op == program.Load {
		// Single move: address -> T (triggers the memory read).
		if s.busFree < 1 || cycle < s.memReady {
			return program.NoValue
		}
		src, ok := s.sourceReadable(op.A, cycle)
		if !ok {
			return program.NoValue
		}
		// The result register must be allocatable; the address read itself
		// may be the event that frees one.
		if !s.hasFreeReg() && !s.readWillFree(op.A) {
			s.wantSpill = true
			return program.NoValue
		}
		dst := Endpoint{Comp: fu, Port: s.ports[fu].trigger, Reg: -1}
		s.busFree--
		s.commitRead(op.A, src)
		resLoc, ok := s.allocReg(cycle)
		if !ok {
			// Unreachable by the guard above; fail loudly in development.
			panic("sched: result allocation failed after free-on-read guard")
		}
		st.resLoc = resLoc
		s.emit(Move{Cycle: cycle, Src: src, Dst: dst,
			Val: op.A, Op: program.ValueID(oi), Trigger: true})
		st.started = true
		st.tFirstIn = cycle
		st.tTrig = cycle
		st.fu = fu
		if s.full {
			s.fuOf[program.ValueID(oi)] = fu
		}
		s.fuBusyBy[fu] = cycle + 1000000 // released by tryFinish
		s.memReady = cycle + 1
		return program.NoValue
	}

	// Two-operand op: move A -> O.
	if s.busFree < 1 {
		return program.NoValue
	}
	src, ok := s.sourceReadable(op.A, cycle)
	if !ok {
		return program.NoValue
	}
	if op.Defines() && !s.hasFreeReg() && !s.readWillFree(op.A) {
		// No room for the result: reading A won't free its register
		// either. Starting now would wedge the function unit.
		s.wantSpill = true
		return program.NoValue
	}
	dst := Endpoint{Comp: fu, Port: s.ports[fu].operand, Reg: -1}
	s.busFree--
	s.commitRead(op.A, src)
	if op.Defines() {
		resLoc, ok := s.allocReg(cycle)
		if !ok {
			panic("sched: result allocation failed after free-on-read guard")
		}
		st.resLoc = resLoc
	}
	s.emit(Move{Cycle: cycle, Src: src, Dst: dst,
		Val: op.A, Op: program.ValueID(oi)})
	st.started = true
	st.tFirstIn = cycle
	st.fu = fu
	if s.full {
		s.fuOf[program.ValueID(oi)] = fu
	}
	s.fuBusyBy[fu] = cycle + 1000000

	// Opportunistic same-cycle trigger (relation (2) allows C(T) == C(O)).
	s.tryTrigger(oi, cycle)
	return program.NoValue
}

// tryTrigger schedules the trigger move of a started op.
func (s *scheduler) tryTrigger(oi int, cycle int) bool {
	op := s.g.Ops[oi]
	st := &s.ops[oi]
	if st.tTrig >= 0 || !st.started || cycle < st.tFirstIn {
		return false
	}
	if s.busFree < 1 {
		return false
	}
	if op.Op == program.Store && cycle < s.memReady {
		return false
	}
	src, ok := s.sourceReadable(op.B, cycle)
	if !ok {
		vs := &s.vals[op.B]
		if !vs.isConst && !vs.alloc && vs.spillSlot >= 0 {
			s.requestReload(op.B)
		}
		return false
	}
	dst := Endpoint{Comp: st.fu, Port: s.ports[st.fu].trigger, Reg: -1}
	s.busFree--
	s.commitRead(op.B, src)
	s.emit(Move{Cycle: cycle, Src: src, Dst: dst,
		Val: op.B, Op: program.ValueID(oi), Trigger: true})
	st.tTrig = cycle
	if op.Op == program.Store {
		s.memReady = cycle + 1
	}
	return true
}

// tryFinish completes an op: stores finish when the memory write commits,
// value-producing ops when their result moves into a register file.
func (s *scheduler) tryFinish(oi int, cycle int) bool {
	op := s.g.Ops[oi]
	st := &s.ops[oi]
	if op.Op == program.Store {
		// Memory write commits at the R stage, two cycles after the
		// trigger move.
		if cycle < st.tTrig+2 {
			return false
		}
		s.fuBusyBy[st.fu] = -1
		st.done = true
		return true
	}
	// Result leaves through F_out at the earliest one cycle after R
	// (relation (8)): bus cycle >= trigger + 3.
	if cycle < st.tTrig+3 {
		return false
	}
	if s.busFree < 1 {
		return false
	}
	// The destination register was reserved at start; only the write port
	// and a bus are needed now.
	rfComp := st.resLoc.RF
	c := &s.arch.Components[rfComp]
	if s.rfWrites[rfComp] >= c.NumIn {
		return false
	}
	s.rfWrites[rfComp]++
	s.busFree--
	src := Endpoint{Comp: st.fu, Port: s.ports[st.fu].result, Reg: -1}
	ins := s.ports[rfComp].in
	dst := Endpoint{Comp: rfComp, Port: ins[(s.rfWrites[rfComp]-1)%len(ins)], Reg: st.resLoc.Reg}
	s.emit(Move{Cycle: cycle, Src: src, Dst: dst,
		Val: program.ValueID(oi), Op: program.ValueID(oi)})

	vs := &s.vals[oi]
	vs.loc = st.resLoc
	vs.readyAt = cycle + 1
	vs.alloc = true
	s.wake(program.ValueID(oi))
	if vs.usesLeft == 0 {
		// Dead value: release immediately after materialization.
		s.freeReg(vs.loc)
		vs.alloc = false
	}
	if s.full {
		s.regAlloc[program.ValueID(oi)] = vs.loc
		oT := st.tFirstIn + 1
		if op.Op == program.Load {
			oT = -1
		}
		s.timings[program.ValueID(oi)] = tta.OpTiming{
			Fin:  st.tFirstIn,
			O:    oT,
			T:    st.tTrig + 1,
			R:    st.tTrig + 2,
			Fout: cycle,
		}
	}
	s.fuBusyBy[st.fu] = -1
	st.done = true
	return true
}
