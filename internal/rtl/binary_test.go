package rtl

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sched"
)

// TestEncodedBinaryRunsOnGates closes the full loop: graph -> schedule ->
// instruction words -> decode -> gate-level execution -> results matching
// the dataflow reference.
func TestEncodedBinaryRunsOnGates(t *testing.T) {
	arch, m := machine(t)
	rng := rand.New(rand.NewSource(11))
	binOps := []program.OpCode{
		program.Add, program.Sub, program.And, program.Or, program.Xor,
		program.Sll, program.Srl, program.Ltu, program.Gts,
	}
	for trial := 0; trial < 5; trial++ {
		g := program.NewGraph("bin", 16)
		a := g.In()
		b := g.In()
		vals := []program.ValueID{a, b, g.ConstV(uint64(rng.Intn(1 << 16)))}
		for i := 0; i < 12; i++ {
			pick := func() program.ValueID { return vals[rng.Intn(len(vals))] }
			switch rng.Intn(6) {
			case 0:
				vals = append(vals, g.Load(pick()))
			default:
				vals = append(vals, g.Bin(binOps[rng.Intn(len(binOps))], pick(), pick()))
			}
		}
		g.Output(vals[len(vals)-1])

		res, err := sched.ScheduleContext(context.Background(), g, arch, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := isa.Encode(res)
		if err != nil {
			t.Fatal(err)
		}
		inputs := []uint64{uint64(rng.Intn(1 << 16)), uint64(rng.Intn(1 << 16))}
		mem := program.Memory{}
		for i := 0; i < 8; i++ {
			mem[uint64(rng.Intn(32))] = uint64(rng.Intn(1 << 16))
		}
		want, err := program.Evaluate(g, inputs, cloneMemP(mem))
		if err != nil {
			t.Fatal(err)
		}

		inputLoc, outputLoc := SeedsOf(res)
		memR := map[uint64]uint64{}
		for k, v := range mem {
			memR[k] = v
		}
		got, err := m.RunProgram(prog, inputLoc, inputs, outputLoc, memR)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want[0] {
			t.Fatalf("trial %d: binary on gates gave %#x, reference %#x", trial, got[0], want[0])
		}
	}
}

func cloneMemP(m program.Memory) program.Memory {
	c := program.Memory{}
	for k, v := range m {
		c[k] = v
	}
	return c
}

func TestRunProgramRejectsForeignFormat(t *testing.T) {
	_, m := machine(t)
	other := smallArch(2)
	g := program.NewGraph("x", 16)
	g.Output(g.Add(g.In(), g.In()))
	res, err := sched.ScheduleContext(context.Background(), g, other, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	inLoc, outLoc := SeedsOf(res)
	if _, err := m.RunProgram(prog, inLoc, []uint64{1, 2}, outLoc, nil); err == nil {
		t.Fatal("program for a foreign architecture accepted")
	}
}
