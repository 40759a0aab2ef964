package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gatelib"
	"repro/internal/netlist"
)

// runATPG runs the full flow under a background context, failing tb on
// error (with no context deadline the error is always nil).
func runATPG(tb testing.TB, n *netlist.Netlist, cfg Config) *Result {
	tb.Helper()
	res, err := RunContext(context.Background(), n, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func buildSmall(t *testing.T) *netlist.Netlist {
	t.Helper()
	// y = (a & b) | ~c ; z = a ^ c
	b := netlist.NewBuilder("small")
	a := b.Input("a")
	x := b.Input("b")
	c := b.Input("c")
	b.Output("y", b.Or(b.And(a, x), b.Not(c)))
	b.Output("z", b.Xor(a, c))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestUniverseCountsAndCollapse(t *testing.T) {
	n := buildSmall(t)
	u := NewUniverse(n)
	if u.Uncollapsed == 0 || len(u.Faults) == 0 {
		t.Fatal("empty fault universe")
	}
	if len(u.Faults) >= u.Uncollapsed {
		t.Fatalf("collapsing had no effect: %d vs %d", len(u.Faults), u.Uncollapsed)
	}
	// Class sizes must account for every uncollapsed fault.
	sum := 0
	for i := range u.Faults {
		sum += u.ClassSize(i)
	}
	if sum != u.Uncollapsed {
		t.Fatalf("class sizes sum to %d, want %d", sum, u.Uncollapsed)
	}
	if r := u.CollapseRatio(); r <= 0 || r >= 1 {
		t.Fatalf("collapse ratio %f out of (0,1)", r)
	}
}

func TestConstGatesExcluded(t *testing.T) {
	b := netlist.NewBuilder("consts")
	a := b.Input("a")
	b.Output("y", b.And(a, b.Const(true)))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(n)
	for _, f := range u.Faults {
		g := n.Gates[f.Gate]
		if g.Type == netlist.Const0 || g.Type == netlist.Const1 {
			t.Fatalf("fault %v placed on a constant gate", f)
		}
	}
}

// exhaustiveDetects checks by brute force whether any input vector
// distinguishes the faulty circuit — ground truth for redundancy claims.
func exhaustiveDetects(n *netlist.Netlist, f Fault) bool {
	sim := NewSimulator(n)
	nc := sim.NumControls()
	if nc > 16 {
		panic("circuit too wide for exhaustive check")
	}
	total := 1 << uint(nc)
	for base := 0; base < total; base += 64 {
		var block []Pattern
		for k := 0; k < 64 && base+k < total; k++ {
			v := base + k
			p := make(Pattern, nc)
			for i := 0; i < nc; i++ {
				p[i] = uint8(v >> uint(i) & 1)
			}
			block = append(block, p)
		}
		sim.LoadBlock(block)
		if sim.Detects(f) != 0 {
			return true
		}
	}
	return false
}

func TestPodemAgreesWithExhaustiveOnSmallCircuit(t *testing.T) {
	n := buildSmall(t)
	u := NewUniverse(n)
	sim := NewSimulator(n)
	eng := newPodem(sim.t, 1000)
	for _, f := range u.Faults {
		asg, outcome := eng.generate(f)
		truth := exhaustiveDetects(n, f)
		switch outcome {
		case podemFound:
			if !truth {
				t.Fatalf("PODEM claims test for untestable fault %v", f)
			}
			// Verify the generated pattern actually detects the fault for
			// every don't-care fill.
			for fill := 0; fill < 4; fill++ {
				rng := rand.New(rand.NewSource(int64(fill)))
				pat := fillPattern(asg, rng)
				sim.LoadBlock([]Pattern{pat})
				if sim.Detects(f) == 0 {
					t.Fatalf("PODEM pattern %v misses fault %v (fill %d)", pat, f, fill)
				}
			}
		case podemRedundant:
			if truth {
				t.Fatalf("PODEM claims fault %v redundant but it is testable", f)
			}
		case podemAborted:
			t.Fatalf("PODEM aborted on trivial circuit for fault %v", f)
		}
	}
}

func TestPodemRedundantFaultViaConstant(t *testing.T) {
	// y = a & 1: the AND input pin fed by const1 is untestable stuck-at-1.
	b := netlist.NewBuilder("red")
	a := b.Input("a")
	one := b.Const(true)
	b.Output("y", b.And(a, one))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Find the AND gate and its const input pin.
	var f Fault
	found := false
	for gi, g := range n.Gates {
		if g.Type == netlist.And {
			for pin, in := range g.In {
				if d := n.Driver(in); d.Kind == netlist.DriverGate &&
					n.Gates[d.Index].Type == netlist.Const1 {
					f = Fault{Gate: int32(gi), Pin: int8(pin), SA: 1}
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("test circuit lacks expected structure")
	}
	sim := NewSimulator(n)
	eng := newPodem(sim.t, 1000)
	if _, outcome := eng.generate(f); outcome != podemRedundant {
		t.Fatalf("outcome %v, want redundant", outcome)
	}
}

func TestRunOnFullAdderFullCoverage(t *testing.T) {
	b := netlist.NewBuilder("fa")
	a := b.Input("a")
	x := b.Input("b")
	ci := b.Input("ci")
	s1 := b.Xor(a, x)
	b.Output("sum", b.Xor(s1, ci))
	b.Output("co", b.Or(b.And(a, x), b.And(s1, ci)))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := runATPG(t, n, Config{Seed: 1})
	if res.Aborted != 0 {
		t.Fatalf("aborted faults on a full adder: %+v", res)
	}
	if res.Coverage() < 1.0 {
		t.Fatalf("coverage %.4f < 1 on full adder: %s", res.Coverage(), res)
	}
	if res.NumPatterns() == 0 || res.NumPatterns() > 8 {
		t.Fatalf("full adder n_p=%d, expected 1..8", res.NumPatterns())
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	n := buildSmall(t)
	r1 := runATPG(t, n, Config{Seed: 42})
	r2 := runATPG(t, n, Config{Seed: 42})
	if r1.NumPatterns() != r2.NumPatterns() || r1.Detected != r2.Detected {
		t.Fatalf("non-deterministic ATPG: %s vs %s", r1, r2)
	}
	if len(r1.Patterns) != len(r2.Patterns) {
		t.Fatal("pattern count mismatch")
	}
	for i := range r1.Patterns {
		for j := range r1.Patterns[i] {
			if r1.Patterns[i][j] != r2.Patterns[i][j] {
				t.Fatalf("pattern %d differs between identical runs", i)
			}
		}
	}
}

func TestCompactionNeverLosesCoverage(t *testing.T) {
	n := buildSmall(t)
	raw := runATPG(t, n, Config{Seed: 3, SkipCompaction: true})
	compact := runATPG(t, n, Config{Seed: 3})
	if compact.Detected != raw.Detected {
		t.Fatalf("compaction changed coverage: %d vs %d", compact.Detected, raw.Detected)
	}
	if compact.NumPatterns() > raw.NumPatterns() {
		t.Fatalf("compaction grew the test set: %d > %d", compact.NumPatterns(), raw.NumPatterns())
	}
	// Re-simulate the compacted set and confirm the detected count.
	u := NewUniverse(n)
	sim := NewSimulator(n)
	got := countDetected(sim, u, compact.Patterns)
	if got != compact.Detected {
		t.Fatalf("re-simulated coverage %d != reported %d", got, compact.Detected)
	}
}

func countDetected(sim *Simulator, u *Universe, pats []Pattern) int {
	detected := make([]bool, len(u.Faults))
	for start := 0; start < len(pats); start += 64 {
		end := start + 64
		if end > len(pats) {
			end = len(pats)
		}
		sim.LoadBlock(pats[start:end])
		for fi := range u.Faults {
			if !detected[fi] && sim.Detects(u.Faults[fi]) != 0 {
				detected[fi] = true
			}
		}
	}
	n := 0
	for _, d := range detected {
		if d {
			n++
		}
	}
	return n
}

func TestRunOnALU8HighCoverage(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	res := runATPG(t, alu.Comb, Config{Seed: 7})
	if res.Coverage() < 0.99 {
		t.Fatalf("ALU8 coverage %.4f < 0.99: %s", res.Coverage(), res)
	}
	if res.NumPatterns() < 10 {
		t.Fatalf("suspiciously few patterns for an 8-bit ALU: %s", res)
	}
	// Independent re-simulation must reproduce the claimed coverage.
	u := NewUniverse(alu.Comb)
	sim := NewSimulator(alu.Comb)
	if got := countDetected(sim, u, res.Patterns); got != res.Detected {
		t.Fatalf("re-simulated %d detected, reported %d", got, res.Detected)
	}
}

func TestPodemOnlyAblationStillCovers(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 4, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	deterministic := runATPG(t, alu.Comb, Config{Seed: 7, MaxRandomPatterns: -1})
	mixed := runATPG(t, alu.Comb, Config{Seed: 7})
	if deterministic.Coverage() < mixed.Coverage()-0.01 {
		t.Fatalf("PODEM-only coverage %.4f below mixed %.4f", deterministic.Coverage(), mixed.Coverage())
	}
	if deterministic.RandomDetected != 0 {
		t.Fatal("random detections reported in PODEM-only mode")
	}
}

func TestScanViewIncludesFlipFlopBoundaries(t *testing.T) {
	// A pipelined component exposes FF Qs as controls and FF Ds as
	// observables.
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 4, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(alu.Seq)
	wantCtrl := len(alu.Seq.PIs) + len(alu.Seq.FFs)
	if sim.NumControls() != wantCtrl {
		t.Fatalf("controls=%d want %d", sim.NumControls(), wantCtrl)
	}
	wantObs := len(alu.Seq.POs) + len(alu.Seq.FFs)
	if len(sim.Observables()) != wantObs {
		t.Fatalf("observables=%d want %d", len(sim.Observables()), wantObs)
	}
}

func TestSimulatorDetectsInjectedOutputFault(t *testing.T) {
	n := buildSmall(t)
	// Fault on the XOR output: z = a ^ c, stuck-at-0. Pattern a=1,c=0
	// gives z=1 good, 0 faulty.
	var xorGate int32 = -1
	for gi, g := range n.Gates {
		if g.Type == netlist.Xor {
			xorGate = int32(gi)
		}
	}
	if xorGate < 0 {
		t.Fatal("no xor gate")
	}
	sim := NewSimulator(n)
	pat := Pattern{1, 0, 0} // a, b, c
	sim.LoadBlock([]Pattern{pat})
	if sim.Detects(Fault{Gate: xorGate, Pin: PinOut, SA: 0}) == 0 {
		t.Fatal("output sa0 not detected by distinguishing pattern")
	}
	if sim.Detects(Fault{Gate: xorGate, Pin: PinOut, SA: 1}) != 0 {
		t.Fatal("sa1 wrongly detected by pattern that sets the line to 1")
	}
}

func TestValueAlgebra(t *testing.T) {
	if andV3(v1, vX) != vX || andV3(v0, vX) != v0 || orV3(v1, vX) != v1 || orV3(v0, vX) != vX {
		t.Fatal("3-valued and/or tables wrong")
	}
	if xorV3(v1, v1) != v0 || xorV3(v1, vX) != vX {
		t.Fatal("3-valued xor table wrong")
	}
	if muxV3(vX, v1, v1) != v1 || muxV3(vX, v0, v1) != vX || muxV3(v1, v0, v1) != v1 {
		t.Fatal("3-valued mux table wrong")
	}
	d := val5{v1, v0}
	if !d.isD() || d.isDbar() || !d.hasFaultEffect() {
		t.Fatal("D encoding broken")
	}
	if d.String() != "D" || (val5{v0, v1}).String() != "D'" {
		t.Fatal("val5 string broken")
	}
}

// fullDetects is the reference (pre-optimization) whole-netlist fault
// evaluation, kept in tests to A/B the cone-restricted fast path.
func fullDetects(s *Simulator, f Fault) uint64 {
	n := s.t.n
	work := make([]uint64, n.NumNets())
	for _, net := range s.t.ctrl {
		work[net] = s.good[net][0]
	}
	for _, gi := range n.TopoOrder() {
		g := &n.Gates[gi]
		var out uint64
		if f.Gate == gi && f.Pin >= 0 {
			out = evalGateWithPin(g, work, int(f.Pin), f.SA)
		} else {
			out = evalGateFast(g, work)
		}
		if f.Gate == gi && f.Pin == PinOut {
			if f.SA == 1 {
				out = ^uint64(0)
			} else {
				out = 0
			}
		}
		work[g.Out] = out
	}
	var diff uint64
	for _, o := range s.t.obs {
		diff |= work[o] ^ s.good[o][0]
	}
	return diff & s.valid[0]
}

// evalGateFast and evalGateWithPin are the retired gate-pointer scalar
// kernels, kept here as the independent reference implementation the
// flat-view engine is A/B-checked against.
func evalGateFast(g *netlist.Gate, w []uint64) uint64 {
	switch g.Type {
	case netlist.Const0:
		return 0
	case netlist.Const1:
		return ^uint64(0)
	case netlist.Buf:
		return w[g.In[0]]
	case netlist.Not:
		return ^w[g.In[0]]
	case netlist.And, netlist.Nand:
		v := w[g.In[0]]
		for _, in := range g.In[1:] {
			v &= w[in]
		}
		if g.Type == netlist.Nand {
			v = ^v
		}
		return v
	case netlist.Or, netlist.Nor:
		v := w[g.In[0]]
		for _, in := range g.In[1:] {
			v |= w[in]
		}
		if g.Type == netlist.Nor {
			v = ^v
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := w[g.In[0]]
		for _, in := range g.In[1:] {
			v ^= w[in]
		}
		if g.Type == netlist.Xnor {
			v = ^v
		}
		return v
	default: // Mux2
		sel, a0, a1 := w[g.In[0]], w[g.In[1]], w[g.In[2]]
		return a0&^sel | a1&sel
	}
}

func evalGateWithPin(g *netlist.Gate, w []uint64, pin int, sa uint8) uint64 {
	forced := uint64(0)
	if sa == 1 {
		forced = ^uint64(0)
	}
	pinVal := func(i int) uint64 {
		if i == pin {
			return forced
		}
		return w[g.In[i]]
	}
	switch g.Type {
	case netlist.Buf:
		return pinVal(0)
	case netlist.Not:
		return ^pinVal(0)
	case netlist.And, netlist.Nand:
		v := pinVal(0)
		for i := 1; i < len(g.In); i++ {
			v &= pinVal(i)
		}
		if g.Type == netlist.Nand {
			v = ^v
		}
		return v
	case netlist.Or, netlist.Nor:
		v := pinVal(0)
		for i := 1; i < len(g.In); i++ {
			v |= pinVal(i)
		}
		if g.Type == netlist.Nor {
			v = ^v
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := pinVal(0)
		for i := 1; i < len(g.In); i++ {
			v ^= pinVal(i)
		}
		if g.Type == netlist.Xnor {
			v = ^v
		}
		return v
	case netlist.Mux2:
		return pinVal(1)&^pinVal(0) | pinVal(2)&pinVal(0)
	default:
		return evalGateFast(g, w)
	}
}

// TestConeDetectsMatchesFullEvaluation A/Bs the cone-restricted fault
// simulation against a full re-evaluation on random circuits and on the
// real ALU.
func TestConeDetectsMatchesFullEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	circuits := []*netlist.Netlist{buildSmall(t)}
	// Random DAGs with reconvergence and fanout.
	for c := 0; c < 4; c++ {
		b := netlist.NewBuilder("rand")
		nets := b.InputBus("in", 6)
		for i := 0; i < 120; i++ {
			a := nets[rng.Intn(len(nets))]
			x := nets[rng.Intn(len(nets))]
			var o netlist.Net
			switch rng.Intn(6) {
			case 0:
				o = b.And(a, x)
			case 1:
				o = b.Or(a, x)
			case 2:
				o = b.Xor(a, x)
			case 3:
				o = b.Nand(a, x)
			case 4:
				o = b.Not(a)
			default:
				o = b.Mux(a, x, nets[rng.Intn(len(nets))])
			}
			nets = append(nets, o)
		}
		for i := 0; i < 4; i++ {
			b.Output(fmt.Sprintf("o%d", i), nets[len(nets)-1-i*7])
		}
		n, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, n)
	}
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	circuits = append(circuits, alu.Comb)

	for ci, n := range circuits {
		u := NewUniverse(n)
		sim := NewSimulator(n)
		block := make([]Pattern, 64)
		for k := range block {
			p := make(Pattern, sim.NumControls())
			for i := range p {
				p[i] = uint8(rng.Intn(2))
			}
			block[k] = p
		}
		sim.LoadBlock(block)
		for _, f := range u.Faults {
			fast := sim.Detects(f)
			slow := fullDetects(sim, f)
			if fast != slow {
				t.Fatalf("circuit %d fault %v: cone mask %#x, full mask %#x", ci, f, fast, slow)
			}
		}
		// The cone is repaired lazily: after a Detects call the scratch
		// state may carry exactly the slots recorded in coneBuf — any
		// marked slot outside it would leak into the next fault's walk.
		marked := make(map[int32]bool, len(sim.coneBuf))
		for _, gs := range sim.coneBuf {
			marked[gs] = true
		}
		for gi, m := range sim.inCone {
			if m != marked[int32(gi)] {
				t.Fatalf("circuit %d: inCone[%d]=%v inconsistent with recorded cone", ci, gi, m)
			}
		}
		// And the repair itself must restore the good machine.
		sim.LoadBlock(block)
		for gi, m := range sim.inCone {
			if m {
				t.Fatalf("circuit %d: inCone[%d] left set after block load", ci, gi)
			}
		}
	}
}

func TestParallelFaultSimMatchesSerial(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	serial := runATPG(t, alu.Comb, Config{Seed: 7, Workers: 1})
	parallel := runATPG(t, alu.Comb, Config{Seed: 7, Workers: 8})
	if serial.NumPatterns() != parallel.NumPatterns() ||
		serial.Detected != parallel.Detected ||
		serial.Redundant != parallel.Redundant {
		t.Fatalf("parallel fault simulation diverged: %s vs %s", serial, parallel)
	}
	for i := range serial.Patterns {
		for j := range serial.Patterns[i] {
			if serial.Patterns[i][j] != parallel.Patterns[i][j] {
				t.Fatalf("pattern %d differs between worker counts", i)
			}
		}
	}
}
