package atpg

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gatelib"
)

func benchNetlist(b *testing.B) *gatelib.Component {
	b.Helper()
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderRipple})
	if err != nil {
		b.Fatal(err)
	}
	return alu
}

// BenchmarkPODEMPhase measures the deterministic top-up (random phase
// disabled so PODEM dominates) serial vs sharded. On a single-core box
// the sharded variant measures pure speculation overhead; on multicore
// it shows the wall-clock win of parallel generation.
func BenchmarkPODEMPhase(b *testing.B) {
	alu := benchNetlist(b)
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runATPG(b, alu.Seq, Config{Seed: 7, MaxRandomPatterns: -1, Workers: workers})
			}
		})
	}
}

// BenchmarkFaultDropBatched contrasts the pre-batching fault-drop shape
// (one LoadBlock per pattern, a full fault sweep each) with the 64-lane
// batched shape the merge pass and compaction use now.
func BenchmarkFaultDropBatched(b *testing.B) {
	alu := benchNetlist(b)
	n := alu.Seq
	u := NewUniverse(n)
	sim := NewSimulator(n)
	// A realistic pattern set: the deterministic patterns of a real run.
	res := runATPG(b, n, Config{Seed: 7, SkipCompaction: true})
	patterns := res.Patterns
	if len(patterns) < 64 {
		b.Fatalf("want >= 64 patterns, got %d", len(patterns))
	}
	detected := make([]bool, len(u.Faults))

	b.Run("lanes=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for di := range detected {
				detected[di] = false
			}
			for _, pat := range patterns {
				sim.LoadBlock([]Pattern{pat})
				for fi := range u.Faults {
					if !detected[fi] && sim.Detects(u.Faults[fi]) != 0 {
						detected[fi] = true
					}
				}
			}
		}
	})
	b.Run("lanes=64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for di := range detected {
				detected[di] = false
			}
			for start := 0; start < len(patterns); start += 64 {
				end := start + 64
				if end > len(patterns) {
					end = len(patterns)
				}
				sim.LoadBlock(patterns[start:end])
				for fi := range u.Faults {
					if !detected[fi] && sim.Detects(u.Faults[fi]) != 0 {
						detected[fi] = true
					}
				}
			}
		}
	})
}

// BenchmarkDetectsWarm pins the per-call cost of the fault-simulation
// hot path (zero allocations once the cone scratch is warm).
func BenchmarkDetectsWarm(b *testing.B) {
	alu := benchNetlist(b)
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
		sim.Detects(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Detects(u.Faults[i%len(u.Faults)])
	}
}

// BenchmarkFaultSimCold is the lanes × component-class grid behind
// BENCH_faultsim.json: one cold annotation (full RunContext — random
// phase, PODEM top-up, compaction) per iteration, at every supported lane
// width, for each component class of the default DSE space. The detected
// sets and patterns are byte-identical across the lanes= variants (see
// TestRunIdenticalAcrossLaneWidthsAndWorkers); only wall time may differ.
func BenchmarkFaultSimCold(b *testing.B) {
	lib := gatelib.NewLibrary()
	classes := []struct {
		name  string
		build func() (*gatelib.Component, error)
	}{
		{"alu16_ripple", func() (*gatelib.Component, error) {
			return lib.ALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderRipple})
		}},
		{"alu16_cs", func() (*gatelib.Component, error) {
			return lib.ALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderCarrySelect})
		}},
		{"cmp16", func() (*gatelib.Component, error) { return lib.CMP(16) }},
		{"rf16x8_1w2r", func() (*gatelib.Component, error) {
			return lib.RF(gatelib.RFConfig{Width: 16, NumRegs: 8, NumIn: 1, NumOut: 2})
		}},
		{"rf16x16_2w2r", func() (*gatelib.Component, error) {
			return lib.RF(gatelib.RFConfig{Width: 16, NumRegs: 16, NumIn: 2, NumOut: 2})
		}},
		{"ldst16", func() (*gatelib.Component, error) { return lib.LDST(16) }},
		{"pc16", func() (*gatelib.Component, error) { return lib.PC(16) }},
		{"imm16", func() (*gatelib.Component, error) { return lib.IMM(16) }},
	}
	for _, cl := range classes {
		comp, err := cl.build()
		if err != nil {
			b.Fatal(err)
		}
		for _, lanes := range laneWidths {
			b.Run(fmt.Sprintf("%s/lanes=%d", cl.name, lanes), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := RunContext(context.Background(), comp.Seq, Config{Seed: 7, LaneWidth: lanes})
					if err != nil {
						b.Fatal(err)
					}
					if res.Coverage() < 0.9 {
						b.Fatalf("coverage collapsed: %v", res)
					}
				}
			})
		}
	}
}

// BenchmarkFullRun is the end-to-end ATPG cost for one library component
// (the unit the annotation cache pays per miss).
func BenchmarkFullRun(b *testing.B) {
	alu := benchNetlist(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunContext(context.Background(), alu.Seq, Config{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		if res.Coverage() < 0.9 {
			b.Fatalf("coverage collapsed: %v", res)
		}
	}
}
