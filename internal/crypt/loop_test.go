package crypt

import (
	"context"
	"testing"

	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tta"
)

// TestLoopedCryptFromOneInstructionBlock executes the complete crypt(3)
// core as a genuine loop: ONE scheduled instruction block (16 DES rounds,
// keys from data memory) runs 25 times on a persistent simulator instance,
// with epilogue register copies chaining each iteration's outputs into the
// next iteration's inputs. No per-iteration re-seeding, no unrolling —
// the fixed block plus loop-carried registers, as real TTA instruction
// memory would hold it.
func TestLoopedCryptFromOneInstructionBlock(t *testing.T) {
	arch := tta.Figure9()
	kernel, err := BuildCryptIterationKernel()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.ScheduleContext(context.Background(), kernel, arch, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Chain: outputs (r16, l16) into the input registers of (l, r).
	var pairs [][2]sched.RegLoc
	inIdx := 0
	var inLocs []sched.RegLoc
	for i, op := range kernel.Ops {
		if op.Op == program.Input {
			inLocs = append(inLocs, res.InputLoc[program.ValueID(i)])
			inIdx++
		}
	}
	if inIdx != 4 {
		t.Fatalf("kernel declares %d inputs, want 4", inIdx)
	}
	for i, o := range kernel.Outputs {
		pairs = append(pairs, [2]sched.RegLoc{res.RegAlloc[o], inLocs[i]})
	}
	if err := sim.AppendEpilogueCopies(res, pairs); err != nil {
		t.Fatal(err)
	}

	inst, err := sim.NewInstance(res, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ks := KeySchedule(KeyFromPassword("l00ped"))
	for k, v := range KeyScheduleMemory(&ks) {
		inst.Mem[k] = v
	}
	for k, v := range MemoryImage() {
		inst.Mem[k] = v
	}
	if err := inst.SeedInputs([]uint64{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < Iterations; iter++ {
		if err := inst.RunIteration(); err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
	}
	// After 25 iterations the INPUT registers hold the chained state
	// (nl, nr) = (r25_16, l25_16).
	read := func(loc sched.RegLoc) uint64 {
		v, err := inst.PeekRegister(loc)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	nl := uint32(read(inLocs[0]))<<16 | uint32(read(inLocs[1]))
	nr := uint32(read(inLocs[2]))<<16 | uint32(read(inLocs[3]))
	gotBlock := FinalPermutation(nr, nl)

	var wantBlock uint64
	for i := 0; i < Iterations; i++ {
		wantBlock = EncryptBlock(wantBlock, &ks, 0)
	}
	if gotBlock != wantBlock {
		t.Fatalf("looped crypt produced %016X, software core %016X", gotBlock, wantBlock)
	}
	t.Logf("looped crypt: one %d-cycle block (%d moves incl. epilogue) x %d iterations = %d cycles total",
		res.Cycles, len(res.Moves), Iterations, res.Cycles*Iterations)
}

func TestIterationKernelMatchesGoldenOnce(t *testing.T) {
	kernel, err := BuildCryptIterationKernel()
	if err != nil {
		t.Fatal(err)
	}
	ks := KeySchedule(0x133457799BBCDFF1)
	mem := KeyScheduleMemory(&ks)
	for k, v := range MemoryImage() {
		mem[k] = v
	}
	out, err := program.Evaluate(kernel, []uint64{0x0123, 0x4567, 0x89AB, 0xCDEF}, mem)
	if err != nil {
		t.Fatal(err)
	}
	l := uint32(0x01234567)
	r := uint32(0x89ABCDEF)
	wl, wr := GoldenRounds(l, r, ks[:])
	// Kernel outputs are (r16, l16).
	gotR := uint32(out[0])<<16 | uint32(out[1])
	gotL := uint32(out[2])<<16 | uint32(out[3])
	if gotR != wr || gotL != wl {
		t.Fatalf("iteration kernel gave r=%08X l=%08X, want r=%08X l=%08X", gotR, gotL, wr, wl)
	}
}

func TestEpilogueCopiesRespectPorts(t *testing.T) {
	// The appended copies must not overload buses or RF ports; sched.Check
	// cannot run (copies have no graph ops), so verify the packing rule
	// directly.
	arch := tta.Figure9()
	kernel, err := BuildCryptIterationKernel()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.ScheduleContext(context.Background(), kernel, arch, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := len(res.Moves)
	var pairs [][2]sched.RegLoc
	var inLocs []sched.RegLoc
	for i, op := range kernel.Ops {
		if op.Op == program.Input {
			inLocs = append(inLocs, res.InputLoc[program.ValueID(i)])
		}
	}
	for i, o := range kernel.Outputs {
		pairs = append(pairs, [2]sched.RegLoc{res.RegAlloc[o], inLocs[i]})
	}
	if err := sim.AppendEpilogueCopies(res, pairs); err != nil {
		t.Fatal(err)
	}
	perCycle := map[int]int{}
	reads := map[[2]int]int{}
	writes := map[[2]int]int{}
	for _, m := range res.Moves[before:] {
		perCycle[m.Cycle]++
		if perCycle[m.Cycle] > arch.Buses {
			t.Fatalf("epilogue cycle %d overloads buses", m.Cycle)
		}
		reads[[2]int{m.Cycle, m.Src.Comp}]++
		writes[[2]int{m.Cycle, m.Dst.Comp}]++
	}
	for key, n := range reads {
		if n > arch.Components[key[1]].NumOut {
			t.Fatalf("epilogue overloads read ports of component %d", key[1])
		}
	}
	for key, n := range writes {
		if n > arch.Components[key[1]].NumIn {
			t.Fatalf("epilogue overloads write ports of component %d", key[1])
		}
	}
}
