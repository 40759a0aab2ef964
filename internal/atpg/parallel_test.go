package atpg

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gatelib"
)

// fig9Components builds the library components the default (figure 9)
// exploration back-annotates: ALU, comparator, register file and the two
// socket types at the paper's 16-bit width.
func fig9Components(t testing.TB) []*gatelib.Component {
	t.Helper()
	lib := gatelib.NewLibrary()
	var comps []*gatelib.Component
	add := func(c *gatelib.Component, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, c)
	}
	add(lib.ALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderRipple}))
	add(lib.CMP(16))
	add(lib.RF(gatelib.RFConfig{Width: 16, NumRegs: 8, NumIn: 1, NumOut: 2}))
	add(lib.InputSocket(6))
	add(lib.OutputSocket(6))
	return comps
}

// TestShardedPodemDeterministicAcrossWorkers asserts the tentpole's core
// contract: the ATPG output is a function of (netlist, seed, config) only.
// Speculative sharded generation plus the canonical-order merge must
// reproduce the serial run byte-for-byte — patterns included — at any
// worker count.
func TestShardedPodemDeterministicAcrossWorkers(t *testing.T) {
	settings := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, c := range fig9Components(t) {
		var base *Result
		var baseWorkers int
		for _, w := range settings {
			res := runATPG(t, c.Seq, Config{Seed: 7, Workers: w})
			if base == nil {
				base, baseWorkers = res, w
				continue
			}
			if !reflect.DeepEqual(base, res) {
				t.Errorf("%s: Workers=%d result differs from Workers=%d:\n  %v\nvs\n  %v",
					c.Name, w, baseWorkers, res, base)
			}
		}
	}
}

// TestShardedPodemRaceStress hammers the speculative shard workers with
// far more goroutines than cores. Its real value is under the tier-1
// -race leg: every cross-shard write (candidate slots, engine state) is
// exercised while the merge pass consumes them.
func TestShardedPodemRaceStress(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	serial := runATPG(t, alu.Seq, Config{Seed: 7, Workers: 1})
	for _, w := range []int{2, 8} {
		sharded := runATPG(t, alu.Seq, Config{Seed: 7, Workers: w})
		if !reflect.DeepEqual(serial, sharded) {
			t.Fatalf("Workers=%d result differs from serial:\n  %v\nvs\n  %v", w, sharded, serial)
		}
	}
}

// TestDetectsZeroAllocOnWarmedSimulator pins the zero-alloc contract of
// the fault-simulation hot path: once the simulator's cone scratch has
// grown to its working size, Detects must not allocate.
func TestDetectsZeroAllocOnWarmedSimulator(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	n := alu.Seq
	u := NewUniverse(n)
	sim := NewSimulator(n)
	rng := newRand(7)
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
		sim.Detects(f) // warm-up: grows the cone scratch buffers
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, f := range u.Faults {
			sim.Detects(f)
		}
	})
	if allocs != 0 {
		t.Fatalf("Detects allocated %.1f times per full fault sweep on a warmed simulator; want 0", allocs)
	}
}

// TestBatchDropperMatchesPerPatternDrop replays the pre-batching serial
// drop loop (one LoadBlock per generated pattern, forward-only drops) as
// a reference and checks the batched top-up reproduces its detected set
// and counters exactly.
func TestBatchDropperMatchesPerPatternDrop(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 4, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	n := alu.Seq
	cfg := Config{Seed: 7}.withDefaults()

	// Reference: the serial algorithm exactly as it was before batching.
	var refDetected []bool
	var refPatterns []Pattern
	refRes := &Result{}
	{
		u := NewUniverse(n)
		sim := NewSimulator(n)
		rng := newRand(cfg.Seed)
		detected := make([]bool, len(u.Faults))
		res := &Result{Netlist: n, TotalFaults: len(u.Faults)}
		m := &runMetrics{}
		pool := newSimPool(sim.t, 64, cfg.Workers)
		patterns := randomPhase(context.Background(), pool, u, cfg, detected, res, m, budget{})
		eng := newPodem(sim.t, cfg.BacktrackLimit)
		for fi := range u.Faults {
			if detected[fi] {
				continue
			}
			asg, outcome := eng.generate(u.Faults[fi])
			switch outcome {
			case podemRedundant:
				res.Redundant++
			case podemAborted:
				res.Aborted++
			case podemFound:
				pat := fillPattern(asg, rng)
				patterns = append(patterns, pat)
				res.PodemPatterns++
				sim.LoadBlock([]Pattern{pat})
				for fj := fi; fj < len(u.Faults); fj++ {
					if !detected[fj] && sim.Detects(u.Faults[fj]) != 0 {
						detected[fj] = true
						res.Detected++
					}
				}
				if !detected[fi] {
					res.Aborted++
				}
			}
		}
		refDetected = detected
		refPatterns = patterns
		refRes = res
	}

	// Batched top-up over an identical starting state.
	u := NewUniverse(n)
	sim := NewSimulator(n)
	rng := newRand(cfg.Seed)
	detected := make([]bool, len(u.Faults))
	res := &Result{Netlist: n, TotalFaults: len(u.Faults)}
	m := &runMetrics{}
	pool := newSimPool(sim.t, 64, cfg.Workers)
	patterns := randomPhase(context.Background(), pool, u, cfg, detected, res, m, budget{})
	patterns, err = podemTopUp(context.Background(), sim, u, cfg, rng, detected, res, patterns, m, budget{})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(refDetected, detected) {
		t.Error("batched drop yields a different detected set than the per-pattern reference")
	}
	if !reflect.DeepEqual(refPatterns, patterns) {
		t.Errorf("batched drop yields different patterns: %d vs %d", len(patterns), len(refPatterns))
	}
	if refRes.Detected != res.Detected || refRes.Redundant != res.Redundant ||
		refRes.Aborted != res.Aborted || refRes.PodemPatterns != res.PodemPatterns {
		t.Errorf("batched drop counters differ: got %+v want %+v", res, refRes)
	}
}
