// Benchmark harness regenerating every table and figure of the paper's
// evaluation, plus the ablation studies called out in DESIGN.md. Each
// benchmark prints the regenerated rows/series once (on its first
// iteration), so `go test -bench=. -benchmem` doubles as the experiment
// driver recorded in EXPERIMENTS.md.
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/dse"
	"repro/internal/gatelib"
	"repro/internal/march"
	"repro/internal/pareto"
	"repro/internal/program"
	"repro/internal/report"
	"repro/internal/scan"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/testcost"
	"repro/internal/tta"
	"repro/internal/vliw"
)

// Shared state so the one-time gate-level ATPG back-annotation is not
// re-measured inside every benchmark loop.
var (
	benchMu    sync.Mutex
	benchAnn   *testcost.Annotator
	benchStudy *core.Study
)

func annotator(b *testing.B) *testcost.Annotator {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchAnn == nil {
		benchAnn = testcost.NewAnnotator(16, 7)
		// Warm the cache outside the timed region.
		if _, err := benchAnn.EvaluateContext(context.Background(), tta.Figure9()); err != nil {
			b.Fatal(err)
		}
	}
	return benchAnn
}

func exploredStudy(b *testing.B) *core.Study {
	b.Helper()
	ann := annotator(b)
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchStudy == nil {
		cfg, err := dse.DefaultConfig()
		if err != nil {
			b.Fatal(err)
		}
		cfg.Annotator = ann
		s := core.NewStudyWithConfig(cfg)
		if err := s.ExploreContext(context.Background()); err != nil {
			b.Fatal(err)
		}
		benchStudy = s
	}
	return benchStudy
}

var printOnce sync.Map

func printFirst(key string, gen func() string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", key, gen())
	}
}

// BenchmarkFigure2AreaTimePareto regenerates figure 2: the 2-D Pareto
// points of the Crypt application in the area/execution-time plane. One
// iteration is a full design space exploration (scheduling the crypt
// round kernel on every candidate).
func BenchmarkFigure2AreaTimePareto(b *testing.B) {
	ann := annotator(b)
	cfg, err := dse.DefaultConfig()
	if err != nil {
		b.Fatal(err)
	}
	cfg.Annotator = ann
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dse.ExploreContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Front2D) == 0 {
			b.Fatal("empty front")
		}
		if i == 0 {
			printFirst("Figure 2: area/exec-time Pareto points (Crypt)", func() string {
				s := core.NewStudyWithConfig(cfg)
				s.Result = res
				t, _ := s.Figure2Table()
				p, _ := s.Figure2Plot()
				return t.String() + "\n" + p
			})
		}
	}
}

// BenchmarkFigure8TestSpacePareto regenerates figure 8: the 3-D Pareto
// points with the test-cost axis, including the projection-preservation
// and test-cost-spread observations.
func BenchmarkFigure8TestSpacePareto(b *testing.B) {
	s := exploredStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var pts []pareto.Point
		for _, ci := range s.Result.Feasible {
			c := &s.Result.Candidates[ci]
			pts = append(pts, pareto.Point{ID: ci, Coords: c.Coords()})
		}
		front := pareto.Front(pts)
		if len(front) == 0 {
			b.Fatal("empty 3-D front")
		}
		if i == 0 {
			printFirst("Figure 8: area/exec-time/test-cost Pareto points", func() string {
				t, _ := s.Figure8Table()
				p, _ := s.Figure8Plot()
				lo, hi, _ := s.Result.TestCostSpread(0.01)
				return fmt.Sprintf("%s\n%s\nprojection preserved: %v; test-cost spread among 2D-close designs: %d..%d\n",
					t.String(), p, s.Result.ProjectionPreserved(), lo, hi)
			})
		}
	}
}

// BenchmarkFigure9Selection regenerates figure 9: the equal-weight
// Euclidean-norm selection over the 3-D front.
func BenchmarkFigure9Selection(b *testing.B) {
	s := exploredStudy(b)
	var pts []pareto.Point
	for _, ci := range s.Result.Front3D {
		pts = append(pts, pareto.Point{ID: ci, Coords: s.Result.Candidates[ci].Coords()})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, err := pareto.Select(pts, nil, pareto.Euclid)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			sel := s.Result.Candidates[pts[best].ID]
			printFirst("Figure 9: selected architecture (equal weights)", func() string {
				return fmt.Sprintf("%s\narea=%.0f exec=%.0f test=%d (full scan %d)\n",
					sel.Arch, sel.Area, sel.ExecTime, sel.TestCost, sel.FullScan)
			})
		}
	}
}

// BenchmarkTable1ScanVsFunctional regenerates Table 1: the per-component
// comparison of full scan against the functional approach on the
// figure-9 architecture.
func BenchmarkTable1ScanVsFunctional(b *testing.B) {
	ann := annotator(b)
	arch := tta.Figure9()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cost, err := ann.EvaluateContext(context.Background(), arch)
		if err != nil {
			b.Fatal(err)
		}
		if cost.Total >= cost.FullScanTotal {
			b.Fatal("functional approach lost to full scan")
		}
		if i == 0 {
			printFirst("Table 1: full scan vs our approach", func() string {
				t, _ := core.Table1For(ann, arch)
				return t.String()
			})
		}
	}
}

// BenchmarkFigure7VLIWTestOrder regenerates the section-3.2 extension:
// test-order exploration on bus-oriented VLIW templates.
func BenchmarkFigure7VLIWTestOrder(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{2, 3, 4} {
			t := vliw.Figure7(n, 86, 80, 60)
			opt, _, err := t.OptimalCost()
			if err != nil {
				b.Fatal(err)
			}
			worst, _, err := t.WorstCost()
			if err != nil {
				b.Fatal(err)
			}
			if worst <= opt {
				b.Fatal("test order made no difference")
			}
			if i == 0 {
				printFirst(fmt.Sprintf("Figure 7 extension: %s", t.Name), func() string {
					return fmt.Sprintf("dependency order %d cycles, naive %d (+%.0f%%)",
						opt, worst, 100*float64(worst-opt)/float64(opt))
				})
			}
		}
	}
}

// BenchmarkTimingRelations measures the transport-timing machinery of
// equations (2)-(10).
func BenchmarkTimingRelations(b *testing.B) {
	fu := tta.NewFU(tta.ALU, "fu")
	fu.Ports[0].Bus = 0
	fu.Ports[1].Bus = 1
	fu.Ports[2].Bus = 2
	ops := []tta.OpTiming{
		{Fin: 0, O: 1, T: 1, R: 2, Fout: 3},
		{Fin: 4, O: 5, T: 5, R: 6, Fout: 7},
		{Fin: 8, O: 9, T: 9, R: 10, Fout: 11},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fu.CD() != tta.MinCD {
			b.Fatal("CD broken")
		}
		if err := tta.CheckRelations(ops); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Core machinery benchmarks ---

// BenchmarkScheduleCryptRound measures list-scheduling the DES round
// kernel onto the figure-9 TTA.
func BenchmarkScheduleCryptRound(b *testing.B) {
	kernel, err := crypt.BuildRoundKernel(1)
	if err != nil {
		b.Fatal(err)
	}
	arch := tta.Figure9()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ScheduleContext(context.Background(), kernel, arch, sched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateCryptRound measures the cycle-accurate simulation with
// full value verification.
func BenchmarkSimulateCryptRound(b *testing.B) {
	kernel, err := crypt.BuildRoundKernel(1)
	if err != nil {
		b.Fatal(err)
	}
	arch := tta.Figure9()
	res, err := sched.ScheduleContext(context.Background(), kernel, arch, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ks := crypt.KeySchedule(0x133457799BBCDFF1)
	inputs := crypt.KernelInputs(0x01234567, 0x89ABCDEF, ks[:1])
	mem := crypt.MemoryImage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(res, inputs, mem, sim.Options{Verify: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkATPGALU16 measures the full ATPG flow on the 16-bit ALU.
func BenchmarkATPGALU16(b *testing.B) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderRipple})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := atpg.RunContext(context.Background(), alu.Seq, atpg.Config{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		if res.Coverage() < 0.99 {
			b.Fatalf("coverage regressed: %s", res)
		}
	}
}

// BenchmarkCryptHash measures the software crypt(3) reference.
func BenchmarkCryptHash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := crypt.Hash("password", "ab"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationAdderChoice contrasts the ripple and carry-select ALUs
// on area, delay and pattern count.
func BenchmarkAblationAdderChoice(b *testing.B) {
	for _, ak := range []gatelib.AdderKind{gatelib.AdderRipple, gatelib.AdderCarrySelect} {
		ak := ak
		b.Run(ak.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 16, Adder: ak})
				if err != nil {
					b.Fatal(err)
				}
				res, err := atpg.RunContext(context.Background(), alu.Seq, atpg.Config{Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					printFirst("Ablation: adder "+ak.String(), func() string {
						return fmt.Sprintf("area=%.0f delay=%.1f np=%d FC=%.2f%%",
							alu.Seq.Area(), alu.Seq.CriticalPath(), res.NumPatterns(), 100*res.Coverage())
					})
				}
			}
		})
	}
}

// BenchmarkAblationATPGStrategy contrasts random+PODEM against PODEM-only
// generation.
func BenchmarkAblationATPGStrategy(b *testing.B) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  atpg.Config
	}{
		{"random+podem", atpg.Config{Seed: 7}},
		{"podem-only", atpg.Config{Seed: 7, MaxRandomPatterns: -1}},
		{"no-compaction", atpg.Config{Seed: 7, SkipCompaction: true}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := atpg.RunContext(context.Background(), alu.Seq, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					printFirst("Ablation: ATPG "+c.name, func() string {
						return fmt.Sprintf("np=%d FC=%.2f%%", res.NumPatterns(), 100*res.Coverage())
					})
				}
			}
		})
	}
}

// BenchmarkAblationMarchChoice contrasts the march algorithms on the RF
// pattern counts of equation (12).
func BenchmarkAblationMarchChoice(b *testing.B) {
	tbl := report.NewTable("Ablation: march algorithm", "algorithm", "RF1(8) np", "RF2(12) np")
	for _, alg := range []march.Test{march.MATSPlus, march.MarchCMinus, march.MarchB} {
		tbl.AddRow(alg.String(),
			march.MultiPortPatternCount(alg, 8, 1, 1),
			march.MultiPortPatternCount(alg, 12, 1, 1))
	}
	printFirst("Ablation: march choice", tbl.String)
	mem := march.NewRAM(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := march.MarchCMinus.Run(mem, 16, 0); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkAblationPortAssignment contrasts the assignment strategies'
// effect on CD and test cost for the same structure.
func BenchmarkAblationPortAssignment(b *testing.B) {
	ann := annotator(b)
	strategies := []tta.AssignStrategy{tta.SpreadFirst, tta.RoundRobin, tta.Packed}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, strat := range strategies {
			a := tta.Figure9().Clone()
			a.Buses = 3
			tta.AssignPorts(a, strat)
			cost, err := ann.EvaluateContext(context.Background(), a)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				printFirst("Ablation: assignment "+strat.String(), func() string {
					return fmt.Sprintf("total test cost %d cycles (ALU CD=%d)",
						cost.Total, a.Components[0].CD())
				})
			}
		}
	}
}

// BenchmarkAblationNormChoice contrasts the selection norms over the 3-D
// front.
func BenchmarkAblationNormChoice(b *testing.B) {
	s := exploredStudy(b)
	var pts []pareto.Point
	for _, ci := range s.Result.Front3D {
		pts = append(pts, pareto.Point{ID: ci, Coords: s.Result.Candidates[ci].Coords()})
	}
	norms := []pareto.Norm{pareto.Euclid, pareto.Manhattan, pareto.Chebyshev}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range norms {
			best, err := pareto.Select(pts, nil, n)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				sel := s.Result.Candidates[pts[best].ID]
				printFirst("Ablation: norm "+n.String(), func() string {
					return sel.Arch.Name
				})
			}
		}
	}
}

// BenchmarkScanInsertion measures the scan-chain rewrite of the ALU.
func BenchmarkScanInsertion(b *testing.B) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderRipple})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scan.Insert(alu.Seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelEvaluate measures the dataflow reference evaluation of
// one DES round (the golden model every simulation is checked against).
func BenchmarkKernelEvaluate(b *testing.B) {
	kernel, err := crypt.BuildRoundKernel(1)
	if err != nil {
		b.Fatal(err)
	}
	ks := crypt.KeySchedule(0x133457799BBCDFF1)
	inputs := crypt.KernelInputs(0x01234567, 0x89ABCDEF, ks[:1])
	mem := crypt.MemoryImage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := program.Evaluate(kernel, inputs, mem); err != nil {
			b.Fatal(err)
		}
	}
}
