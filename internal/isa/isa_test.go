package isa

import (
	"context"
	"strings"
	"testing"

	"repro/internal/crypt"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/tta"
)

func scheduleKernel(t *testing.T, arch *tta.Architecture) *sched.Result {
	t.Helper()
	kernel, err := crypt.BuildRoundKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.ScheduleContext(context.Background(), kernel, arch, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFormatDerivation(t *testing.T) {
	arch := tta.Figure9()
	f, err := NewFormat(arch)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 9: 16 sockets total; sources = R ports + RF reads + PC out +
	// IMM out = 3 FUs R... count: ALU R, CMP R, RF1 read, RF2 read, LDST R,
	// PC out, IMM out = 7 sources; destinations = 9.
	if len(f.srcs) != 7 {
		t.Errorf("%d source sockets, want 7", len(f.srcs))
	}
	if len(f.dsts) != 9 {
		t.Errorf("%d destination sockets, want 9", len(f.dsts))
	}
	if f.SrcBits < 3 || f.DstBits < 4 {
		t.Errorf("socket fields too narrow: src=%d dst=%d", f.SrcBits, f.DstBits)
	}
	if f.RegBits < 4 { // RF2 has 12 registers
		t.Errorf("reg field %d bits cannot address 12 registers", f.RegBits)
	}
	if f.InstrBits() <= f.Arch.Buses*f.SlotBits() {
		t.Error("instruction width lacks the immediate field")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	arch := tta.Figure9()
	res := scheduleKernel(t, arch)
	p, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Words) != len(p.Instrs) {
		t.Fatal("words/instrs length mismatch")
	}
	for i, word := range p.Words {
		dec, err := p.Format.Decode(word, p.Instrs[i].Cycle)
		if err != nil {
			t.Fatalf("instruction %d: %v", i, err)
		}
		want := p.Instrs[i]
		if len(dec.Slots) != len(want.Slots) {
			t.Fatalf("instruction %d: slot count changed", i)
		}
		for si := range want.Slots {
			if dec.Slots[si] != want.Slots[si] {
				t.Fatalf("instruction %d slot %d: %+v != %+v", i, si, dec.Slots[si], want.Slots[si])
			}
		}
		if dec.Imm != want.Imm {
			t.Fatalf("instruction %d: imm %d != %d", i, dec.Imm, want.Imm)
		}
	}
}

func TestEncodedMoveCountMatchesSchedule(t *testing.T) {
	arch := tta.Figure9()
	res := scheduleKernel(t, arch)
	p, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ins := range p.Instrs {
		for _, s := range ins.Slots {
			if s.Valid {
				n++
			}
		}
	}
	if n != len(res.Moves) {
		t.Fatalf("encoded %d moves, schedule has %d", n, len(res.Moves))
	}
	if len(p.Instrs) != res.Cycles {
		t.Logf("note: %d instructions vs %d schedule cycles (trailing register-load cycle)", len(p.Instrs), res.Cycles)
	}
}

func TestCodeSizeGrowsWithBuses(t *testing.T) {
	// Wider instruction words are the classic TTA cost of more buses.
	narrow := tta.Figure9()
	narrow.Buses = 1
	tta.AssignPorts(narrow, tta.SpreadFirst)
	wide := tta.Figure9()
	wide.Buses = 4
	tta.AssignPorts(wide, tta.SpreadFirst)
	fN, err := NewFormat(narrow)
	if err != nil {
		t.Fatal(err)
	}
	fW, err := NewFormat(wide)
	if err != nil {
		t.Fatal(err)
	}
	if fW.InstrBits() <= fN.InstrBits() {
		t.Fatalf("4-bus instruction %d bits not wider than 1-bus %d", fW.InstrBits(), fN.InstrBits())
	}
}

func TestDisassemblyReadable(t *testing.T) {
	arch := tta.Figure9()
	res := scheduleKernel(t, arch)
	p, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	asm := p.Disassemble()
	if len(asm) != len(p.Instrs) {
		t.Fatal("disassembly line count mismatch")
	}
	text := strings.Join(asm, "\n")
	for _, want := range []string{"ALU.T.op", "->", "#", "RF1.r", "nop"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly lacks %q", want)
		}
	}
}

func TestSpillMovesEncodable(t *testing.T) {
	// Force spilling with tiny register files and confirm the spill
	// traffic encodes (LD/ST opcodes with the store flag).
	arch := &tta.Architecture{
		Name: "tiny", Width: 16, Buses: 2,
		Components: []tta.Component{
			tta.NewFU(tta.ALU, "ALU"),
			tta.NewFU(tta.CMP, "CMP"),
			tta.NewRF("RF", 6, 1, 2),
			tta.NewFU(tta.LDST, "LD/ST"),
			tta.NewIMM("IMM"),
		},
	}
	tta.AssignPorts(arch, tta.SpreadFirst)
	g := program.NewGraph("pressure", 16)
	a := g.In()
	b := g.In()
	// Many ALU results whose consumers are all blocked behind a long
	// serial load chain: the scheduler races ahead on the ALU, the live
	// results overflow the 6-register file, and spill code is emitted.
	var adds []program.ValueID
	for i := 0; i < 14; i++ {
		adds = append(adds, g.Add(a, g.Xor(b, g.ConstV(uint64(i)))))
	}
	addr := g.ConstV(0)
	for i := 0; i < 24; i++ {
		addr = g.Load(addr) // strictly serial pointer chase
	}
	acc := addr
	for _, v := range adds {
		acc = g.Xor(acc, v)
	}
	g.Output(acc)
	res, err := sched.ScheduleContext(context.Background(), g, arch, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spills == 0 {
		t.Fatal("pressure graph scheduled without spills on a 6-register file")
	}
	p, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	if p.CodeBits() == 0 {
		t.Fatal("empty encoding")
	}
	text := strings.Join(p.Disassemble(), "\n")
	if !strings.Contains(text, "LD/ST.T.op9") {
		t.Errorf("spill store (op9 = LD/ST store) not found in disassembly")
	}
}

func TestEncodeRejectsForeignSockets(t *testing.T) {
	arch := tta.Figure9()
	res := scheduleKernel(t, arch)
	// Corrupt one move to point at a non-source socket (an input port).
	bad := *res
	bad.Moves = append([]sched.Move(nil), res.Moves...)
	bad.Moves[0].Src = sched.Endpoint{Comp: 0, Port: 0, Reg: -1} // ALU operand port as a source
	if _, err := Encode(&bad); err == nil {
		t.Fatal("non-source socket accepted")
	}
}

func TestCompressRoundTrip(t *testing.T) {
	arch := tta.Figure9()
	res := scheduleKernel(t, arch)
	p, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Compress()
	if len(c.Dict) == 0 || len(c.Indices) != len(p.Words) {
		t.Fatalf("degenerate compression: dict=%d indices=%d", len(c.Dict), len(c.Indices))
	}
	back, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Words {
		if len(back[i]) != len(p.Words[i]) {
			t.Fatalf("word %d limb count changed", i)
		}
		for j := range p.Words[i] {
			if back[i][j] != p.Words[i][j] {
				t.Fatalf("word %d limb %d: %#x != %#x", i, j, back[i][j], p.Words[i][j])
			}
		}
	}
	ratio := c.Ratio(p)
	t.Logf("crypt round: %d words, %d unique, index %d bits, ratio %.2f",
		len(p.Words), len(c.Dict), c.IndexBits, ratio)
	if ratio >= 1.0 {
		t.Logf("note: dictionary compression did not help this program")
	}
}

func TestCompressRepetitiveProgramShrinks(t *testing.T) {
	// A loop-like stream (repeated identical words) must compress well.
	arch := tta.Figure9()
	res := scheduleKernel(t, arch)
	p, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate 25 iterations of the same kernel: repeat the word stream.
	rep := &Program{Format: p.Format}
	for it := 0; it < 25; it++ {
		rep.Words = append(rep.Words, p.Words...)
		rep.Instrs = append(rep.Instrs, p.Instrs...)
	}
	c := rep.Compress()
	if got := c.Ratio(rep); got > 0.35 {
		t.Errorf("25x-repeated stream compressed only to %.2f", got)
	}
	if len(c.Dict) != len(p.Compress().Dict) {
		t.Error("repetition grew the dictionary")
	}
	if _, err := (&Compressed{Indices: []int{5}, Dict: nil}).Decompress(); err == nil {
		t.Error("out-of-range index accepted")
	}
}
