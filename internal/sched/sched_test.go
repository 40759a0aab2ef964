package sched

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/tta"
)

func simpleArch(buses int) *tta.Architecture {
	a := &tta.Architecture{
		Name: "test", Width: 16, Buses: buses,
		Components: []tta.Component{
			tta.NewFU(tta.ALU, "ALU"),
			tta.NewFU(tta.CMP, "CMP"),
			tta.NewRF("RF1", 8, 1, 2),
			tta.NewRF("RF2", 12, 1, 1),
			tta.NewFU(tta.LDST, "LD/ST"),
			tta.NewPC("PC"),
			tta.NewIMM("Immediate"),
		},
	}
	tta.AssignPorts(a, tta.SpreadFirst)
	return a
}

func chainGraph(n int) *program.Graph {
	g := program.NewGraph("chain", 16)
	v := g.In()
	one := g.ConstV(1)
	for i := 0; i < n; i++ {
		v = g.Add(v, one)
	}
	g.Output(v)
	return g
}

func parallelGraph(n int) *program.Graph {
	g := program.NewGraph("parallel", 16)
	a := g.In()
	b := g.In()
	var outs []program.ValueID
	for i := 0; i < n; i++ {
		outs = append(outs, g.Xor(g.Add(a, g.ConstV(uint64(i))), b))
	}
	acc := outs[0]
	for _, o := range outs[1:] {
		acc = g.Or(acc, o)
	}
	g.Output(acc)
	return g
}

func TestScheduleChainRespectsTimingRelations(t *testing.T) {
	g := chainGraph(10)
	res, err := ScheduleContext(context.Background(), g, simpleArch(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || len(res.Moves) == 0 {
		t.Fatal("empty schedule")
	}
	// Group timings per function unit and verify the paper's relations.
	perFU := map[int][]tta.OpTiming{}
	for id, tim := range res.Timings {
		perFU[res.FUOf[id]] = append(perFU[res.FUOf[id]], tim)
	}
	for fu, tims := range perFU {
		if err := tta.CheckRelations(tims); err != nil {
			t.Fatalf("FU %d violates transport relations: %v", fu, err)
		}
	}
}

func TestScheduleBusCapacityNeverExceeded(t *testing.T) {
	for _, buses := range []int{1, 2, 3} {
		g := parallelGraph(12)
		res, err := ScheduleContext(context.Background(), g, simpleArch(buses), Options{})
		if err != nil {
			t.Fatalf("buses=%d: %v", buses, err)
		}
		for c, n := range res.MovesPerCycle() {
			if n > buses {
				t.Fatalf("buses=%d: cycle %d has %d moves", buses, c, n)
			}
		}
	}
}

func TestMoreBusesNeverSlowerOnParallelWork(t *testing.T) {
	g := parallelGraph(16)
	cyc1 := mustCycles(t, g, simpleArch(1))
	cyc3 := mustCycles(t, g, simpleArch(3))
	if cyc3 > cyc1 {
		t.Fatalf("3 buses slower than 1: %d vs %d", cyc3, cyc1)
	}
	if cyc3 == cyc1 {
		t.Logf("note: bus count made no difference (%d cycles)", cyc1)
	}
}

func mustCycles(t *testing.T, g *program.Graph, a *tta.Architecture) int {
	t.Helper()
	res, err := ScheduleContext(context.Background(), g, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles
}

func TestTwoALUsSpeedUpIndependentWork(t *testing.T) {
	g := parallelGraph(20)
	one := simpleArch(3)
	two := simpleArch(3)
	two.Components = append(two.Components, tta.NewFU(tta.ALU, "ALU2"))
	tta.AssignPorts(two, tta.SpreadFirst)
	c1 := mustCycles(t, g, one)
	c2 := mustCycles(t, g, two)
	if c2 >= c1 {
		t.Fatalf("second ALU did not help: %d vs %d cycles", c2, c1)
	}
}

func TestChainLengthDominatesChainSchedule(t *testing.T) {
	// A dependence chain cannot be shorter than ~CD per op regardless of
	// resources.
	g := chainGraph(8)
	rich := simpleArch(4)
	res, err := ScheduleContext(context.Background(), g, rich, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 8*tta.MinCD {
		t.Fatalf("chain of 8 scheduled in %d cycles, below the CD bound %d", res.Cycles, 8*tta.MinCD)
	}
}

func TestMissingUnitsRejected(t *testing.T) {
	noCmp := &tta.Architecture{
		Name: "nocmp", Width: 16, Buses: 2,
		Components: []tta.Component{
			tta.NewFU(tta.ALU, "ALU"),
			tta.NewRF("RF", 8, 1, 1),
			tta.NewIMM("IMM"),
		},
	}
	tta.AssignPorts(noCmp, tta.SpreadFirst)
	g := program.NewGraph("cmpy", 16)
	a := g.In()
	g.Output(g.Eq(a, a))
	if _, err := ScheduleContext(context.Background(), g, noCmp, Options{}); err == nil || !strings.Contains(err.Error(), "CMP") {
		t.Fatalf("missing CMP not reported: %v", err)
	}

	g2 := program.NewGraph("addy", 16)
	x := g2.In()
	g2.Output(g2.Add(x, x))
	noRF := &tta.Architecture{
		Name: "norf", Width: 16, Buses: 2,
		Components: []tta.Component{tta.NewFU(tta.ALU, "ALU"), tta.NewIMM("IMM")},
	}
	tta.AssignPorts(noRF, tta.SpreadFirst)
	if _, err := ScheduleContext(context.Background(), g2, noRF, Options{}); err == nil {
		t.Fatal("missing RF accepted")
	}
}

func TestTooFewRegistersRejected(t *testing.T) {
	tiny := &tta.Architecture{
		Name: "tiny", Width: 16, Buses: 2,
		Components: []tta.Component{
			tta.NewFU(tta.ALU, "ALU"),
			tta.NewRF("RF", 2, 1, 1),
			tta.NewIMM("IMM"),
		},
	}
	tta.AssignPorts(tiny, tta.SpreadFirst)
	g := program.NewGraph("wide", 16)
	var ins []program.ValueID
	for i := 0; i < 6; i++ {
		ins = append(ins, g.In())
	}
	acc := ins[0]
	for _, v := range ins[1:] {
		acc = g.Add(acc, v)
	}
	g.Output(acc)
	if _, err := ScheduleContext(context.Background(), g, tiny, Options{}); err == nil {
		t.Fatal("6 inputs into a 2-register file accepted")
	}
}

func TestRegisterPressureIncreasesCycles(t *testing.T) {
	// The same program on a much smaller register file must not be
	// significantly faster (greedy list scheduling allows ±1-cycle noise),
	// and truly tiny register files must show spill traffic.
	g := parallelGraph(14)
	small := simpleArch(2)
	small.Components[2] = tta.NewRF("RF1", 3, 1, 2)
	small.Components[3] = tta.NewRF("RF2", 3, 1, 1)
	tta.AssignPorts(small, tta.SpreadFirst)
	big := simpleArch(2)
	resSmall, err := ScheduleContext(context.Background(), g, small, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cb := mustCycles(t, g, big)
	if resSmall.Cycles < cb-2 {
		t.Fatalf("6-register schedule markedly faster than 20-register one: %d vs %d", resSmall.Cycles, cb)
	}
	if resSmall.PeakLive > 6 {
		t.Fatalf("peak live %d exceeds the 6 available registers", resSmall.PeakLive)
	}
}

func TestScheduleStoreThenLoadOrdering(t *testing.T) {
	g := program.NewGraph("mem", 16)
	addr := g.ConstV(0x10)
	val := g.ConstV(0xBEEF)
	st := g.Store(addr, val)
	ld := g.Load(addr)
	g.Output(ld)
	_ = st
	res, err := ScheduleContext(context.Background(), g, simpleArch(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Find trigger cycles for the store and the load.
	var stTrig, ldTrig = -1, -1
	for _, m := range res.Moves {
		if !m.Trigger {
			continue
		}
		switch g.Ops[m.Op].Op {
		case program.Store:
			stTrig = m.Cycle
		case program.Load:
			ldTrig = m.Cycle
		}
	}
	if stTrig < 0 || ldTrig < 0 {
		t.Fatal("missing store/load triggers")
	}
	if ldTrig <= stTrig {
		t.Fatalf("load triggered at %d, not after store at %d", ldTrig, stTrig)
	}
}

func TestDeterministicSchedules(t *testing.T) {
	g := parallelGraph(10)
	r1, err := ScheduleContext(context.Background(), g, simpleArch(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ScheduleContext(context.Background(), g, simpleArch(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || len(r1.Moves) != len(r2.Moves) {
		t.Fatalf("nondeterministic schedule: %d/%d vs %d/%d moves/cycles",
			len(r1.Moves), r1.Cycles, len(r2.Moves), r2.Cycles)
	}
	for i := range r1.Moves {
		if r1.Moves[i] != r2.Moves[i] {
			t.Fatalf("move %d differs: %v vs %v", i, r1.Moves[i], r2.Moves[i])
		}
	}
}

func TestPeakLiveWithinCapacity(t *testing.T) {
	g := parallelGraph(12)
	arch := simpleArch(2)
	res, err := ScheduleContext(context.Background(), g, arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakLive > 8+12 {
		t.Fatalf("peak live %d exceeds total registers", res.PeakLive)
	}
	if res.PeakLive == 0 {
		t.Fatal("peak live 0 is impossible with inputs")
	}
}

// randomGraph builds a random well-formed DFG for fuzzing.
func randomGraph(rng *rand.Rand, nOps int) *program.Graph {
	g := program.NewGraph("fuzz", 16)
	var vals []program.ValueID
	for i := 0; i < 3; i++ {
		vals = append(vals, g.In())
	}
	for i := 0; i < 3; i++ {
		vals = append(vals, g.ConstV(uint64(rng.Intn(1<<16))))
	}
	binOps := []program.OpCode{
		program.Add, program.Sub, program.Sll, program.Srl,
		program.And, program.Or, program.Xor,
		program.Eq, program.Ltu, program.Lts, program.Gtu,
	}
	for i := 0; i < nOps; i++ {
		pick := func() program.ValueID { return vals[rng.Intn(len(vals))] }
		switch rng.Intn(10) {
		case 0:
			vals = append(vals, g.Load(pick()))
		case 1:
			g.Store(pick(), pick())
		default:
			op := binOps[rng.Intn(len(binOps))]
			vals = append(vals, g.Bin(op, pick(), pick()))
		}
	}
	// A couple of outputs from the tail of the value list.
	g.Output(vals[len(vals)-1])
	g.Output(vals[len(vals)/2])
	return g
}

func TestFuzzSchedulesAreWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 30+rng.Intn(40))
		arch := simpleArch(1 + rng.Intn(3))
		res, err := ScheduleContext(context.Background(), g, arch, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for c, n := range res.MovesPerCycle() {
			if n > arch.Buses {
				t.Fatalf("trial %d: cycle %d overloads buses", trial, c)
			}
		}
		perFU := map[int][]tta.OpTiming{}
		for id, tim := range res.Timings {
			perFU[res.FUOf[id]] = append(perFU[res.FUOf[id]], tim)
		}
		for fu, tims := range perFU {
			if err := tta.CheckRelations(tims); err != nil {
				t.Fatalf("trial %d FU %d: %v", trial, fu, err)
			}
		}
	}
}

func TestCheckAcceptsAllFuzzSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 30+rng.Intn(50))
		arch := simpleArch(1 + rng.Intn(3))
		res, err := ScheduleContext(context.Background(), g, arch, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := Check(res); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestCheckRejectsCorruptedSchedules(t *testing.T) {
	g := parallelGraph(10)
	arch := simpleArch(2)
	res, err := ScheduleContext(context.Background(), g, arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(res); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	// Corruption 1: cram every move into cycle 0 (bus overload).
	bad := *res
	bad.Moves = append([]Move(nil), res.Moves...)
	for i := range bad.Moves {
		bad.Moves[i].Cycle = 0
	}
	if err := Check(&bad); err == nil {
		t.Error("bus-overloaded schedule accepted")
	}
	// Corruption 2: advance a result move to right after its trigger.
	bad2 := *res
	bad2.Moves = append([]Move(nil), res.Moves...)
	for i := range bad2.Moves {
		m := bad2.Moves[i]
		src := &arch.Components[m.Src.Comp]
		if src.Kind == tta.ALU || src.Kind == tta.CMP {
			bad2.Moves[i].Cycle = m.Cycle - 2
			break
		}
	}
	if err := Check(&bad2); err == nil {
		t.Error("relation-(8)-violating schedule accepted")
	}
	// Corruption 3: read a register that is never written.
	bad3 := *res
	bad3.Moves = append([]Move(nil), res.Moves...)
	for i := range bad3.Moves {
		m := bad3.Moves[i]
		if arch.Components[m.Src.Comp].Kind == tta.RF {
			bad3.Moves[i].Src.Reg = 7 // RF1 has 8 regs; 7 is never allocated first
			if err := Check(&bad3); err == nil {
				t.Error("never-written register read accepted")
			}
			break
		}
	}
}

func TestDegenerateGraphs(t *testing.T) {
	arch := simpleArch(2)
	// Pure pass-through: outputs are inputs; no moves required.
	g := program.NewGraph("pass", 16)
	a := g.In()
	g.Output(a)
	res, err := ScheduleContext(context.Background(), g, arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) != 0 {
		t.Errorf("pass-through needed %d moves", len(res.Moves))
	}
	if err := Check(res); err != nil {
		t.Fatal(err)
	}

	// Dead code: an unused op must still be scheduled legally.
	g2 := program.NewGraph("dead", 16)
	x := g2.In()
	g2.Add(x, x) // result never used
	g2.Output(x)
	res2, err := ScheduleContext(context.Background(), g2, arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(res2); err != nil {
		t.Fatal(err)
	}

	// Same value on both operand ports.
	g3 := program.NewGraph("dup", 16)
	y := g3.In()
	g3.Output(g3.Xor(y, y))
	res3, err := ScheduleContext(context.Background(), g3, arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(res3); err != nil {
		t.Fatal(err)
	}

	// Empty graph (no ops at all).
	g4 := program.NewGraph("empty", 16)
	if _, err := ScheduleContext(context.Background(), g4, arch, Options{}); err != nil {
		t.Fatalf("empty graph rejected: %v", err)
	}
}

func TestDegenerateGraphsSimulate(t *testing.T) {
	arch := simpleArch(2)
	g := program.NewGraph("dup", 16)
	y := g.In()
	g.Output(g.Xor(y, y))
	res, err := ScheduleContext(context.Background(), g, arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two reads of the same register in one or two cycles: both legal.
	reads := 0
	for _, m := range res.Moves {
		if arch.Components[m.Src.Comp].Kind == tta.RF {
			reads++
		}
	}
	if reads != 2 {
		t.Errorf("expected 2 register reads for xor(y,y), saw %d", reads)
	}
}
