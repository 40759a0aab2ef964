package atpg

import (
	"testing"

	"repro/internal/gatelib"
	"repro/internal/netlist"
)

func TestTDFUniverseSkipsConstants(t *testing.T) {
	b := netlist.NewBuilder("c")
	a := b.Input("a")
	b.Output("y", b.And(a, b.Const(true)))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range TDFUniverse(n) {
		g := n.Gates[f.Gate]
		if g.Type == netlist.Const0 || g.Type == netlist.Const1 {
			t.Fatal("transition fault on a constant gate")
		}
	}
}

func TestTDFBufferPair(t *testing.T) {
	// y = buf(a): the slow-to-rise fault needs the pair (a=0, a=1);
	// slow-to-fall needs (a=1, a=0).
	b := netlist.NewBuilder("buf")
	a := b.Input("a")
	b.Output("y", b.Buf(a))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rise := [][]uint8{{0}, {1}}
	fall := [][]uint8{{1}, {0}}
	both := [][]uint8{{0}, {1}, {0}}
	same := [][]uint8{{1}, {1}, {1}}
	toPats := func(vs [][]uint8) []Pattern {
		out := make([]Pattern, len(vs))
		for i, v := range vs {
			out[i] = Pattern(v)
		}
		return out
	}
	if got := EvaluateTDF(n, toPats(rise)); got.Detected != 1 {
		t.Errorf("rising pair detected %d faults, want 1 (STR)", got.Detected)
	}
	if got := EvaluateTDF(n, toPats(fall)); got.Detected != 1 {
		t.Errorf("falling pair detected %d, want 1 (STF)", got.Detected)
	}
	if got := EvaluateTDF(n, toPats(both)); got.Detected != 2 {
		t.Errorf("rise+fall sequence detected %d, want 2", got.Detected)
	}
	if got := EvaluateTDF(n, toPats(same)); got.Detected != 0 {
		t.Errorf("constant sequence detected %d transition faults, want 0", got.Detected)
	}
}

func TestTDFRepeatedPatternsDetectNothing(t *testing.T) {
	// Applying the same pattern repeatedly launches no transitions.
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 4, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	res := runATPG(t, alu.Comb, Config{Seed: 7})
	same := make([]Pattern, 10)
	for i := range same {
		same[i] = res.Patterns[0]
	}
	if got := EvaluateTDF(alu.Comb, same); got.Detected != 0 {
		t.Fatalf("identical patterns detected %d transition faults", got.Detected)
	}
}

func TestTDFCoverageFromStuckAtSet(t *testing.T) {
	// The paper's claim: the functionally applied stuck-at set, streamed
	// back to back, already covers a substantial share of the transition
	// faults.
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	res := runATPG(t, alu.Comb, Config{Seed: 7})
	tdf := EvaluateTDF(alu.Comb, res.Patterns)
	if tdf.Coverage() < 0.5 {
		t.Fatalf("stuck-at sequence covers only %.1f%% of transition faults", 100*tdf.Coverage())
	}
	if tdf.Pairs != len(res.Patterns)-1 {
		t.Fatalf("pairs=%d, want %d", tdf.Pairs, len(res.Patterns)-1)
	}
	t.Logf("ALU8: %d stuck-at patterns cover %d/%d transition faults (%.1f%%)",
		len(res.Patterns), tdf.Detected, tdf.Total, 100*tdf.Coverage())
}

func TestOrderForTDFNeverHurtsMuch(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	res := runATPG(t, alu.Comb, Config{Seed: 7})
	base := EvaluateTDF(alu.Comb, res.Patterns)
	reordered := EvaluateTDF(alu.Comb, OrderForTDF(res.Patterns))
	t.Logf("TDF coverage: as-generated %.1f%%, max-toggle order %.1f%%",
		100*base.Coverage(), 100*reordered.Coverage())
	if float64(reordered.Detected) < 0.9*float64(base.Detected) {
		t.Errorf("reordering collapsed TDF coverage: %d -> %d", base.Detected, reordered.Detected)
	}
	// The reorder keeps the same multiset of patterns.
	if len(OrderForTDF(res.Patterns)) != len(res.Patterns) {
		t.Fatal("reorder changed the pattern count")
	}
}

func TestTDFFewPatterns(t *testing.T) {
	b := netlist.NewBuilder("x")
	a := b.Input("a")
	b.Output("y", b.Not(a))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := EvaluateTDF(n, nil); got.Detected != 0 || got.Pairs != 0 {
		t.Fatal("empty sequence should evaluate to zero")
	}
	if got := EvaluateTDF(n, []Pattern{{0}}); got.Detected != 0 {
		t.Fatal("single pattern cannot launch transitions")
	}
}

func TestTDFBlockBoundaryPairs(t *testing.T) {
	// A detecting pair straddling the 64-lane block boundary must still
	// count (blocks overlap by one pattern).
	b := netlist.NewBuilder("buf2")
	a := b.Input("a")
	b.Output("y", b.Buf(a))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// 63 constant-1 patterns, then 0 at index 63, then 1 at index 64: the
	// only rising pair is (63, 64), crossing the first block's edge.
	var pats []Pattern
	for i := 0; i < 63; i++ {
		pats = append(pats, Pattern{1})
	}
	pats = append(pats, Pattern{0}, Pattern{1})
	got := EvaluateTDF(n, pats)
	// Falling pair (62,63) detects STF; rising pair (63,64) detects STR.
	if got.Detected != 2 {
		t.Fatalf("detected %d transition faults, want 2 (pairs across block edge)", got.Detected)
	}
}
