package sched

import (
	"repro/internal/program"
	"repro/internal/tta"
)

// Register spilling. When the live values exceed register-file capacity,
// the scheduler stores a victim value into the reserved spill region of
// data memory through the LD/ST unit and reloads it before its next use —
// the same escape hatch a compiling scheduler such as MOVE's relies on.
// Spill traffic consumes buses, RF ports and LD/ST bandwidth, so small
// register files translate into longer schedules rather than infeasible
// ones: the area/execution-time trade-off of the paper's figure 2.

type spillJob struct {
	val    program.ValueID
	isLoad bool
	fu     int
	tAddr  int // addr move cycle (-1 = not yet; stores only)
	tTrig  int // data/trigger move cycle (-1 = not yet)
	resLoc RegLoc
	done   bool
}

// emit records a move: appended to the program in full mode, counted
// (with its cycle, which never decreases) in both modes.
func (s *scheduler) emit(m Move) {
	if s.full {
		s.moves = append(s.moves, m)
	}
	s.nMoves++
	s.lastCycle = m.Cycle
	s.movedNow = true
}

// spillsIdle reports whether no spill job is outstanding.
func (s *scheduler) spillsIdle() bool {
	for i := range s.spills {
		if !s.spills[i].done {
			return false
		}
	}
	return true
}

// spillAddr returns the memory address of a spill slot.
func spillAddr(slot int) uint64 { return SpillBase + uint64(slot) }

// immSource returns a free Immediate unit endpoint for a literal, or false.
func (s *scheduler) immSource(v uint64) (Endpoint, bool) {
	for _, imm := range s.imms {
		if s.immUsed[imm] == 0 {
			return Endpoint{Comp: imm, Port: s.ports[imm].out[0], Reg: -1, Imm: v}, true
		}
	}
	return Endpoint{}, false
}

// requestReload queues a spill-load job for a value whose register copy was
// dropped.
func (s *scheduler) requestReload(v program.ValueID) {
	vs := &s.vals[v]
	if vs.loadPending || vs.alloc || vs.spillSlot < 0 {
		return
	}
	vs.loadPending = true
	s.spills = append(s.spills, spillJob{val: v, isLoad: true, fu: -1, tAddr: -1, tTrig: -1, resLoc: RegLoc{-1, -1}})
	s.reloadCount++
}

// stepSpills advances outstanding spill jobs by at most one stage. Stores
// run before the op phases (they free registers); loads run after (so
// pending operations claim result registers first and reloads cannot
// starve them).
func (s *scheduler) stepSpills(cycle int, loads bool) {
	for i := range s.spills {
		j := &s.spills[i]
		if j.done || j.isLoad != loads {
			continue
		}
		if j.isLoad {
			s.stepSpillLoad(j, cycle)
		} else {
			s.stepSpillStore(j, cycle)
		}
	}
	// Compact completed jobs occasionally to bound the scan.
	if len(s.spills) > 32 {
		kept := s.spills[:0]
		for _, j := range s.spills {
			if !j.done {
				kept = append(kept, j)
			}
		}
		s.spills = kept
	}
}

// hasFreeReg reports whether any register file has a free register.
func (s *scheduler) hasFreeReg() bool { return s.live < s.totalRegs }

// readWillFree reports whether reading value v (once) releases its
// register.
func (s *scheduler) readWillFree(v program.ValueID) bool {
	if v == program.NoValue {
		return false
	}
	vs := &s.vals[v]
	return !vs.isConst && vs.alloc && vs.usesLeft == 1
}

func (s *scheduler) stepSpillStore(j *spillJob, cycle int) {
	vs := &s.vals[j.val]
	// The victim may have died (last use read, register freed) between the
	// spill decision and now: abandon the job so it cannot wedge the LD/ST
	// unit waiting for a value that no longer exists.
	if j.tTrig < 0 && !vs.alloc {
		if j.fu >= 0 {
			s.fuBusyBy[j.fu] = -1
		}
		vs.spillSlot = -1 // nothing was written; the slot is dead
		j.done = true
		return
	}
	// Stage 1: claim an LD/ST unit and move the spill address into O.
	if j.tAddr < 0 {
		if s.busFree < 1 {
			return
		}
		fu := -1
		for _, cand := range s.fusOf(tta.LDST) {
			if s.fuBusyBy[cand] < cycle {
				fu = cand
				break
			}
		}
		if fu < 0 {
			return
		}
		src, ok := s.immSource(spillAddr(vs.spillSlot))
		if !ok {
			return
		}
		s.busFree--
		s.immUsed[src.Comp]++
		s.emit(Move{Cycle: cycle, Src: src,
			Dst: Endpoint{Comp: fu, Port: s.ports[fu].operand, Reg: -1},
			Val: program.NoValue, Op: program.NoValue, Spill: SpillStoreAddr})
		j.fu = fu
		j.tAddr = cycle
		s.fuBusyBy[fu] = cycle + 1000000
		// Fall through: the data move may go out the same cycle.
	}
	// Stage 2: move the register value into T (memory write trigger).
	if j.tTrig < 0 {
		if s.busFree < 1 || !vs.alloc {
			return
		}
		rf := vs.loc.RF
		c := &s.arch.Components[rf]
		if s.rfReads[rf] >= c.NumOut {
			return
		}
		outs := s.ports[rf].out
		src := Endpoint{Comp: rf, Port: outs[s.rfReads[rf]%len(outs)], Reg: vs.loc.Reg}
		s.rfReads[rf]++
		s.busFree--
		s.emit(Move{Cycle: cycle, Src: src,
			Dst: Endpoint{Comp: j.fu, Port: s.ports[j.fu].trigger, Reg: -1},
			Val: j.val, Op: program.NoValue, Trigger: true, Spill: SpillStoreData})
		j.tTrig = cycle
		// The register copy is gone after this cycle's read; the memory
		// copy becomes usable once the write commits.
		s.freeReg(vs.loc)
		vs.alloc = false
		s.evicted(j.val)
		vs.spillValid = true
		vs.spillReadyAt = cycle + 1
		return
	}
	// Stage 3: memory committed two cycles after the trigger.
	if cycle >= j.tTrig+2 {
		s.fuBusyBy[j.fu] = -1
		j.done = true
	}
}

func (s *scheduler) stepSpillLoad(j *spillJob, cycle int) {
	vs := &s.vals[j.val]
	// Stage 1: claim LD/ST, reserve the destination register, and trigger
	// the memory read with the spill address.
	if j.tTrig < 0 {
		if s.busFree < 1 || cycle < vs.spillReadyAt {
			return
		}
		fu := -1
		for _, cand := range s.fusOf(tta.LDST) {
			if s.fuBusyBy[cand] < cycle {
				fu = cand
				break
			}
		}
		if fu < 0 {
			return
		}
		src, ok := s.immSource(spillAddr(vs.spillSlot))
		if !ok {
			return
		}
		loc, ok := s.allocReg(cycle)
		if !ok {
			return // a future maybeSpill will free capacity
		}
		s.busFree--
		s.immUsed[src.Comp]++
		s.emit(Move{Cycle: cycle, Src: src,
			Dst: Endpoint{Comp: fu, Port: s.ports[fu].trigger, Reg: -1},
			Val: program.NoValue, Op: program.NoValue, Trigger: true, Spill: SpillLoadTrig})
		j.fu = fu
		j.tTrig = cycle
		j.resLoc = loc
		s.fuBusyBy[fu] = cycle + 1000000
		return
	}
	// Stage 2: move the result into the reserved register (relation (8)).
	if cycle < j.tTrig+3 || s.busFree < 1 {
		return
	}
	rf := j.resLoc.RF
	c := &s.arch.Components[rf]
	if s.rfWrites[rf] >= c.NumIn {
		return
	}
	s.rfWrites[rf]++
	s.busFree--
	ins := s.ports[rf].in
	s.emit(Move{Cycle: cycle,
		Src: Endpoint{Comp: j.fu, Port: s.ports[j.fu].result, Reg: -1},
		Dst: Endpoint{Comp: rf, Port: ins[(s.rfWrites[rf]-1)%len(ins)], Reg: j.resLoc.Reg},
		Val: j.val, Op: program.NoValue, Spill: SpillLoadResult})
	vs.loc = j.resLoc
	vs.readyAt = cycle + 1
	vs.alloc = true
	s.wake(j.val)
	vs.loadPending = false
	vs.noEvictUntil = cycle + 16
	if s.full {
		s.regAlloc[j.val] = vs.loc
	}
	s.fuBusyBy[j.fu] = -1
	j.done = true
}

// maybeSpill frees register capacity when the schedule is starved: it
// evicts the live value whose next use is farthest away (Belady's rule on
// static op order). Values that already own a spill slot are dropped
// without a store. Returns true if it made progress.
func (s *scheduler) maybeSpill(cycle int) bool {
	// At most one spill store in flight keeps the LD/ST unit available for
	// program memory traffic.
	for i := range s.spills {
		if j := &s.spills[i]; !j.done && !j.isLoad {
			return false
		}
	}
	victim := program.NoValue
	victimNext := -1
	for v := range s.vals {
		vs := &s.vals[v]
		if !vs.alloc || vs.isOutput || vs.loadPending || vs.usesLeft == 0 || vs.noEvictUntil > cycle {
			continue
		}
		next := s.nextUnstartedUse(program.ValueID(v))
		if next > victimNext {
			victimNext = next
			victim = program.ValueID(v)
		}
	}
	if victim == program.NoValue {
		return false
	}
	vs := &s.vals[victim]
	if vs.spillSlot >= 0 && vs.spillValid {
		// Clean value: the memory copy is still valid (SSA values never
		// change); just drop the register.
		s.freeReg(vs.loc)
		vs.alloc = false
		s.evicted(victim)
		return true
	}
	vs.spillSlot = s.spillSlots
	s.spillSlots++
	s.spillCount++
	s.spills = append(s.spills, spillJob{val: victim, fu: -1, tAddr: -1, tTrig: -1, resLoc: RegLoc{-1, -1}})
	return true
}

// nextUnstartedUse returns the smallest consumer op index that has not
// started yet (a large sentinel when every consumer is done — should not
// happen for values with usesLeft > 0 unless the value is an output).
func (s *scheduler) nextUnstartedUse(v program.ValueID) int {
	for _, c := range s.plan.consumers[v] {
		st := &s.ops[c]
		if st.done {
			continue
		}
		// A started op may still need the value for its pending trigger.
		if !st.started || st.tTrig < 0 {
			return int(c)
		}
	}
	return 1 << 30
}
