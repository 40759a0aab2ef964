package ftest

import (
	"context"
	"testing"

	"repro/internal/atpg"
	"repro/internal/gatelib"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tta"
)

func fuWithBuses(o, t, r int) *tta.Component {
	fu := tta.NewFU(tta.ALU, "fu")
	fu.Ports[0].Bus = o
	fu.Ports[1].Bus = t
	fu.Ports[2].Bus = r
	return &fu
}

func TestSequentialMatchesCDPerPattern(t *testing.T) {
	cases := []struct {
		name    string
		fu      *tta.Component
		buses   int
		wantCad int
	}{
		{"distinct buses (eq. 9)", fuWithBuses(0, 1, 2), 3, 3},
		{"shared operand/trigger (eq. 10)", fuWithBuses(0, 0, 1), 2, 4},
		{"single bus", fuWithBuses(0, 0, 0), 1, 5},
	}
	for _, c := range cases {
		tm, err := MeasureTransport(c.fu, c.buses, 50, Sequential)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := tm.PerPattern(); got < float64(c.wantCad)-0.2 || got > float64(c.wantCad)+0.2 {
			t.Errorf("%s: %.2f cycles/pattern, want ~%d (CD)", c.name, got, c.wantCad)
		}
		if tm.CD != c.wantCad {
			t.Errorf("%s: CD=%d, want %d", c.name, tm.CD, c.wantCad)
		}
	}
}

func TestSequentialMeasuredNeverAboveAnalytic(t *testing.T) {
	// Equation (11) is an upper bound on the actual transport schedule.
	for _, buses := range []int{1, 2, 3, 4} {
		fu := tta.NewFU(tta.ALU, "fu")
		a := &tta.Architecture{Name: "x", Width: 16, Buses: buses,
			Components: []tta.Component{fu}}
		tta.AssignPorts(a, tta.SpreadFirst)
		tm, err := MeasureTransport(&a.Components[0], buses, 100, Sequential)
		if err != nil {
			t.Fatal(err)
		}
		if tm.Cycles > tm.Analytic+tm.CD {
			t.Errorf("buses=%d: measured %d exceeds analytic %d", buses, tm.Cycles, tm.Analytic)
		}
		// And the measured time is within the right magnitude (not
		// trivially small).
		if tm.Cycles < 100*3 {
			t.Errorf("buses=%d: measured %d below the CD=3 lower bound", buses, tm.Cycles)
		}
	}
}

func TestPipelinedBeatsSequential(t *testing.T) {
	fu := fuWithBuses(0, 1, 2)
	seq, err := MeasureTransport(fu, 3, 100, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := MeasureTransport(fu, 3, 100, Pipelined)
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Cycles >= seq.Cycles {
		t.Fatalf("pipelined %d cycles not below sequential %d", pipe.Cycles, seq.Cycles)
	}
	// With three dedicated buses the steady state approaches one pattern
	// per cycle.
	if pp := pipe.PerPattern(); pp > 1.3 {
		t.Errorf("pipelined per-pattern %.2f, expected near 1", pp)
	}
}

func TestPipelinedRespectsBusConflicts(t *testing.T) {
	// Operand and trigger on one bus: at most one transport per cycle on
	// that bus, so the pipelined cadence cannot go below 2.
	fu := fuWithBuses(0, 0, 1)
	pipe, err := MeasureTransport(fu, 2, 100, Pipelined)
	if err != nil {
		t.Fatal(err)
	}
	if pp := pipe.PerPattern(); pp < 1.9 {
		t.Errorf("pipelined per-pattern %.2f below the 2-moves-per-bus bound", pp)
	}
}

func TestMeasureTransportValidation(t *testing.T) {
	fu := fuWithBuses(0, 1, 5)
	if _, err := MeasureTransport(fu, 2, 10, Sequential); err == nil {
		t.Error("out-of-range bus accepted")
	}
	imm := tta.NewIMM("imm")
	if _, err := MeasureTransport(&imm, 2, 10, Sequential); err == nil {
		t.Error("output-only component accepted")
	}
}

func TestCampaignDetectsFaultsThroughTransportPath(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	fu := fuWithBuses(0, 1, 2)
	camp, err := RunCampaign(alu, fu, 3, Sequential, atpg.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Coverage() < 0.99 {
		t.Fatalf("functional coverage %.4f < 0.99: %s", camp.Coverage(), camp)
	}
	if camp.Timing.Cycles <= 0 || camp.Timing.Analytic <= 0 {
		t.Fatalf("degenerate timing: %s", camp.Timing)
	}
	// The functional application must be far below the full-scan time for
	// the same pattern count (chain length ~29 for the 8-bit ALU seq; the
	// comb core has no chain at all — compare against nl=3*8+5=29).
	scanCycles := camp.Timing.Patterns * 30
	if camp.Timing.Cycles >= scanCycles {
		t.Errorf("functional %d cycles not below scan-equivalent %d", camp.Timing.Cycles, scanCycles)
	}
}

func TestCampaignStringAndModeNames(t *testing.T) {
	if Sequential.String() == "" || Pipelined.String() == "" {
		t.Fatal("empty mode names")
	}
	c := &Campaign{Component: "x", Timing: &Timing{Patterns: 1, Cycles: 3}, TotalFaults: 10, Detected: 10}
	if c.String() == "" {
		t.Fatal("empty campaign string")
	}
}

func TestCampaignRejectsCorelessComponent(t *testing.T) {
	rf, err := gatelib.NewRF(gatelib.RFConfig{Width: 8, NumRegs: 4, NumIn: 1, NumOut: 1})
	if err != nil {
		t.Fatal(err)
	}
	fu := fuWithBuses(0, 1, 2)
	if _, err := RunCampaign(rf, fu, 3, Sequential, atpg.Config{Seed: 7}); err == nil {
		t.Error("register file (no comb core) accepted for an FU campaign")
	}
}

func TestWorsePortAssignmentMeasuresSlower(t *testing.T) {
	// The figure-6 effect, measured rather than computed: the same
	// component tests slower when its ports share buses.
	good := fuWithBuses(0, 1, 2)
	bad := fuWithBuses(0, 0, 0)
	tg, err := MeasureTransport(good, 3, 80, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := MeasureTransport(bad, 3, 80, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Cycles <= tg.Cycles {
		t.Fatalf("packed ports measured %d cycles, not above spread %d", tb.Cycles, tg.Cycles)
	}
}

func TestTestProgramCompilesAndDumpsResponses(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	res, err := atpg.RunContext(context.Background(), alu.Comb, atpg.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := BuildTestProgram(tta.ALU, alu.Comb, res.Patterns, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Applied == 0 {
		t.Fatal("no patterns expressed")
	}
	if tp.Applied+tp.Skipped != len(res.Patterns) {
		t.Fatalf("applied %d + skipped %d != %d patterns", tp.Applied, tp.Skipped, len(res.Patterns))
	}
	// The program schedules like any application and its fault-free dump
	// matches the expected responses.
	arch := tta.Figure9()
	schedRes, err := sched.ScheduleContext(context.Background(), tp.Graph, arch, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem := program.Memory{}
	if _, err := sim.Run(schedRes, nil, mem, sim.Options{Verify: true}); err != nil {
		t.Fatal(err)
	}
	for i, want := range tp.Expected {
		if got := mem[DumpBase+uint64(i)]; got != want {
			t.Fatalf("dump[%d] = %#x, want %#x", i, got, want)
		}
	}
	t.Logf("functional test of the ALU is a TTA program: %d patterns, %d moves, %d cycles",
		tp.Applied, len(schedRes.Moves), schedRes.Cycles)
}

func TestProgramCampaignDetectsGateFaults(t *testing.T) {
	// The headline: running the test program with a fault-injected
	// gate-level ALU changes the response dump for almost every fault.
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	arch := tta.Figure9()
	camp, err := RunProgramCampaign(arch, 0, alu, atpg.Config{Seed: 7}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if camp.TotalFaults < 100 {
		t.Fatalf("subsample too small: %d", camp.TotalFaults)
	}
	// The pass-op patterns are skipped, so coverage through the program is
	// slightly below the raw ATPG figure but must remain high.
	if camp.Coverage() < 0.90 {
		t.Fatalf("program-level coverage %.3f < 0.90 (%d/%d)", camp.Coverage(), camp.Detected, camp.TotalFaults)
	}
	t.Logf("test-program campaign: %d/%d sampled faults detected (%.1f%%), %d cycles, %d skipped patterns",
		camp.Detected, camp.TotalFaults, 100*camp.Coverage(), camp.Cycles, camp.Skipped)
}

func TestNetlistExecMatchesBehavioural(t *testing.T) {
	// Without a fault, the gate-level execution override must agree with
	// the behavioural ALU on every opcode.
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NetlistExec(0, alu, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := []program.OpCode{program.Add, program.Sub, program.Sll, program.Srl,
		program.And, program.Or, program.Xor}
	for i, op := range ops {
		o := uint64(0x1234 + i*77)
		tv := uint64(0x00F3 ^ i)
		got, handled := exec(0, op, o, tv)
		if !handled {
			t.Fatalf("%s not handled", op)
		}
		want, err := program.EvalBinary(op, o, tv, 16)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s(%#x,%#x): gates %#x, behavioural %#x", op, o, tv, got, want)
		}
	}
	// Other components fall through.
	if _, handled := exec(3, program.Add, 1, 2); handled {
		t.Fatal("override intercepted a foreign component")
	}
}
