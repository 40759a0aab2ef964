package rtl

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/crypt"
	"repro/internal/gatelib"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tta"
)

func smallArch(buses int) *tta.Architecture {
	a := &tta.Architecture{
		Name: "rtlarch", Width: 16, Buses: buses,
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

// runAllTiers schedules g, runs the behavioural simulator and the
// gate-level machine, and requires bit-identical outputs from both.
func runAllTiers(t *testing.T, arch *tta.Architecture, m *Machine, g *program.Graph, inputs []uint64, mem program.Memory) []uint64 {
	t.Helper()
	res, err := sched.ScheduleContext(context.Background(), g, arch, sched.Options{})
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	memB := program.Memory{}
	memR := map[uint64]uint64{}
	for k, v := range mem {
		memB[k] = v
		memR[k] = v
	}
	behav, err := sim.Run(res, inputs, memB, sim.Options{Verify: true})
	if err != nil {
		t.Fatalf("behavioural sim: %v", err)
	}
	gates, err := m.RunSchedule(res, inputs, memR)
	if err != nil {
		t.Fatalf("rtl run: %v", err)
	}
	if len(gates) != len(behav) {
		t.Fatalf("output counts differ: %d vs %d", len(gates), len(behav))
	}
	for i := range gates {
		if gates[i] != behav[i] {
			t.Fatalf("output %d: gates=%#x behavioural=%#x", i, gates[i], behav[i])
		}
	}
	return gates
}

var (
	cachedArch *tta.Architecture
	cachedM    *Machine
)

func machine(t *testing.T) (*tta.Architecture, *Machine) {
	t.Helper()
	if cachedM == nil {
		cachedArch = smallArch(2)
		m, err := Build(cachedArch, gatelib.NewLibrary())
		if err != nil {
			t.Fatal(err)
		}
		cachedM = m
	}
	return cachedArch, cachedM
}

func TestBuildAssemblesDatapath(t *testing.T) {
	_, m := machine(t)
	st := m.Stats()
	if st.Gates < 2000 || st.FFs < 300 {
		t.Fatalf("datapath suspiciously small: %s", st)
	}
	t.Logf("assembled datapath: %s", st)
}

func TestSingleAddThroughGates(t *testing.T) {
	arch, m := machine(t)
	g := program.NewGraph("add", 16)
	a := g.In()
	b := g.In()
	g.Output(g.Add(a, b))
	out := runAllTiers(t, arch, m, g, []uint64{0x1234, 0x4321}, nil)
	if out[0] != 0x5555 {
		t.Fatalf("got %#x, want 0x5555", out[0])
	}
}

func TestAllOpcodesThroughGates(t *testing.T) {
	arch, m := machine(t)
	ops := []program.OpCode{
		program.Add, program.Sub, program.Sll, program.Srl,
		program.And, program.Or, program.Xor,
		program.Eq, program.Ne, program.Ltu, program.Lts,
		program.Geu, program.Ges, program.Gtu, program.Gts,
	}
	rng := rand.New(rand.NewSource(42))
	for _, op := range ops {
		g := program.NewGraph("op", 16)
		a := g.In()
		b := g.In()
		g.Output(g.Bin(op, a, b))
		in := []uint64{uint64(rng.Intn(1 << 16)), uint64(rng.Intn(1 << 16))}
		want, err := program.Evaluate(g, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := runAllTiers(t, arch, m, g, in, nil)
		if out[0] != want[0] {
			t.Fatalf("%s(%#x,%#x): gates=%#x reference=%#x", op, in[0], in[1], out[0], want[0])
		}
	}
}

func TestMemoryThroughGates(t *testing.T) {
	arch, m := machine(t)
	g := program.NewGraph("mem", 16)
	base := g.ConstV(0x40)
	one := g.ConstV(1)
	v := g.Load(base)
	v2 := g.Add(v, one)
	a2 := g.Add(base, one)
	g.Store(a2, v2)
	g.Output(g.Load(a2))
	out := runAllTiers(t, arch, m, g, nil, program.Memory{0x40: 0x00AA})
	if out[0] != 0x00AB {
		t.Fatalf("got %#x, want 0xAB", out[0])
	}
	// The RTL memory map must hold the stored value too.
	if m.Mem[0x41] != 0x00AB {
		t.Fatalf("rtl memory holds %#x at 0x41", m.Mem[0x41])
	}
}

func TestImmediatesThroughGates(t *testing.T) {
	arch, m := machine(t)
	g := program.NewGraph("imm", 16)
	g.Output(g.Xor(g.ConstV(0xAAAA), g.ConstV(0x0FF0)))
	out := runAllTiers(t, arch, m, g, nil, nil)
	if out[0] != 0xA55A {
		t.Fatalf("got %#x, want 0xA55A", out[0])
	}
}

func TestFuzzGatesAgreeWithBehavioural(t *testing.T) {
	arch, m := machine(t)
	rng := rand.New(rand.NewSource(777))
	binOps := []program.OpCode{
		program.Add, program.Sub, program.Sll, program.Srl,
		program.And, program.Or, program.Xor,
		program.Eq, program.Ltu, program.Gts,
	}
	trials := 8
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		g := program.NewGraph("fuzz", 16)
		var vals []program.ValueID
		for i := 0; i < 2; i++ {
			vals = append(vals, g.In())
		}
		vals = append(vals, g.ConstV(uint64(rng.Intn(1<<16))))
		n := 10 + rng.Intn(20)
		for i := 0; i < n; i++ {
			pick := func() program.ValueID { return vals[rng.Intn(len(vals))] }
			switch rng.Intn(8) {
			case 0:
				vals = append(vals, g.Load(pick()))
			case 1:
				g.Store(pick(), pick())
			default:
				vals = append(vals, g.Bin(binOps[rng.Intn(len(binOps))], pick(), pick()))
			}
		}
		g.Output(vals[len(vals)-1])
		inputs := []uint64{uint64(rng.Intn(1 << 16)), uint64(rng.Intn(1 << 16))}
		mem := program.Memory{}
		for i := 0; i < 6; i++ {
			mem[uint64(rng.Intn(32))] = uint64(rng.Intn(1 << 16))
		}
		runAllTiers(t, arch, m, g, inputs, mem)
	}
}

func TestCryptFeistelChunkThroughGates(t *testing.T) {
	// The headline co-simulation: a piece of the real crypt round — the
	// E-expansion chunk extraction and key mixing for two S-boxes plus the
	// SP-table lookups — executed in gates.
	arch, m := machine(t)
	g := program.NewGraph("feistel2", 16)
	rhi := g.In()
	rlo := g.In()
	khi := g.In()
	c := func(v uint64) program.ValueID { return g.ConstV(v) }
	xhi := g.Or(g.Srl(rhi, c(1)), g.Sll(rlo, c(15)))
	chunk0 := g.Srl(xhi, c(10))
	chunk1 := g.And(g.Srl(xhi, c(6)), c(63))
	k0 := g.Srl(khi, c(10))
	k1 := g.And(g.Srl(khi, c(4)), c(63))
	idx0 := g.Xor(chunk0, k0)
	idx1 := g.Xor(chunk1, k1)
	v0 := g.Load(g.Add(c(crypt.SPHiBase), idx0))
	v1 := g.Load(g.Add(c(crypt.SPHiBase+64), idx1))
	g.Output(g.Xor(v0, v1))
	inputs := []uint64{0xB3B6, 0xA08E, 0x1357}
	out := runAllTiers(t, arch, m, g, inputs, crypt.MemoryImage())
	want, err := program.Evaluate(g, inputs, crypt.MemoryImage())
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != want[0] {
		t.Fatalf("gates=%#x reference=%#x", out[0], want[0])
	}
}

func TestRunScheduleRejectsForeignArch(t *testing.T) {
	_, m := machine(t)
	other := smallArch(2)
	g := program.NewGraph("x", 16)
	g.Output(g.Add(g.In(), g.In()))
	res, err := sched.ScheduleContext(context.Background(), g, other, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunSchedule(res, []uint64{1, 2}, nil); err == nil {
		t.Fatal("schedule for a different architecture instance accepted")
	}
}

func TestPokePeekRegisters(t *testing.T) {
	_, m := machine(t)
	m.Reset()
	if err := m.PokeRegister(2, 3, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := m.PeekRegister(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xBEEF {
		t.Fatalf("peek %#x, want 0xBEEF", v)
	}
	if err := m.PokeRegister(2, 99, 1); err == nil {
		t.Fatal("out-of-range register accepted")
	}
	if err := m.PokeRegister(0, 0, 1); err == nil {
		t.Fatal("non-RF component accepted")
	}
}

func TestDatapathExportsToVerilog(t *testing.T) {
	_, m := machine(t)
	var sb strings.Builder
	if err := m.N.WriteVerilog(&sb, "tta_datapath"); err != nil {
		t.Fatal(err)
	}
	v := sb.String()
	if !strings.Contains(v, "module tta_datapath") || !strings.Contains(v, "endmodule") {
		t.Fatal("malformed Verilog export")
	}
	if got := strings.Count(v, "always @(posedge clk)"); got != len(m.N.FFs) {
		t.Fatalf("%d always blocks for %d flip-flops", got, len(m.N.FFs))
	}
	t.Logf("full datapath exports to %d bytes of Verilog", len(v))
}
