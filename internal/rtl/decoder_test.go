package rtl

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/crypt"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/tta"
)

func decodedMachine(t *testing.T) (*tta.Architecture, *DecodedMachine) {
	t.Helper()
	arch, m := machine(t)
	d, err := BuildDecoded(m)
	if err != nil {
		t.Fatal(err)
	}
	return arch, d
}

func TestDecoderNetlistShape(t *testing.T) {
	_, d := decodedMachine(t)
	st := d.Dec.Stats()
	if st.Gates < 100 {
		t.Fatalf("decoder suspiciously small: %s", st)
	}
	if st.FFs != 0 {
		t.Fatalf("decoder must be combinational, has %d FFs", st.FFs)
	}
	if len(d.wordNets) != d.Format.InstrBits() {
		t.Fatalf("word port %d bits, format says %d", len(d.wordNets), d.Format.InstrBits())
	}
	t.Logf("instruction decoder: %s for %d-bit words", st, d.Format.InstrBits())
}

// TestBinaryThroughGateLevelDecode is the deepest end-to-end path in the
// repository: program -> schedule -> instruction words -> gate-level
// decode (socket ID comparators) -> gate-level datapath -> results equal
// to the dataflow reference.
func TestBinaryThroughGateLevelDecode(t *testing.T) {
	arch, d := decodedMachine(t)
	rng := rand.New(rand.NewSource(31))
	binOps := []program.OpCode{
		program.Add, program.Sub, program.And, program.Or, program.Xor,
		program.Sll, program.Srl, program.Ltu, program.Ges,
	}
	for trial := 0; trial < 4; trial++ {
		g := program.NewGraph("dec", 16)
		a := g.In()
		bIn := g.In()
		vals := []program.ValueID{a, bIn, g.ConstV(uint64(rng.Intn(1 << 16)))}
		for i := 0; i < 10; i++ {
			pick := func() program.ValueID { return vals[rng.Intn(len(vals))] }
			switch rng.Intn(6) {
			case 0:
				vals = append(vals, g.Load(pick()))
			case 1:
				g.Store(pick(), pick())
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
		for i := 0; i < 6; i++ {
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
		got, err := d.RunWords(prog, inputLoc, inputs, outputLoc, memR)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want[0] {
			t.Fatalf("trial %d: decoded binary gave %#x, reference %#x", trial, got[0], want[0])
		}
	}
}

func TestCryptSliceThroughGateLevelDecode(t *testing.T) {
	arch, d := decodedMachine(t)
	g := program.NewGraph("feistel_dec", 16)
	rhi := g.In()
	rlo := g.In()
	c := func(v uint64) program.ValueID { return g.ConstV(v) }
	xhi := g.Or(g.Srl(rhi, c(1)), g.Sll(rlo, c(15)))
	idx := g.Xor(g.Srl(xhi, c(10)), c(0x15))
	g.Output(g.Load(g.Add(c(crypt.SPHiBase), idx)))

	res, err := sched.ScheduleContext(context.Background(), g, arch, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []uint64{0xB3B6, 0xA08E}
	want, err := program.Evaluate(g, inputs, crypt.MemoryImage())
	if err != nil {
		t.Fatal(err)
	}
	inputLoc, outputLoc := SeedsOf(res)
	memR := map[uint64]uint64{}
	for k, v := range crypt.MemoryImage() {
		memR[k] = v
	}
	got, err := d.RunWords(prog, inputLoc, inputs, outputLoc, memR)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("decoded crypt slice gave %#x, reference %#x", got[0], want[0])
	}
}

func TestRunWordsRejectsForeignProgram(t *testing.T) {
	_, d := decodedMachine(t)
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
	if _, err := d.RunWords(prog, inLoc, []uint64{1, 2}, outLoc, nil); err == nil {
		t.Fatal("foreign program accepted")
	}
}
