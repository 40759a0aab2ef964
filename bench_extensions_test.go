// Benchmarks for the systems built beyond the paper's core evaluation:
// functional test application (the paper's mechanism, measured), the BIST
// comparator (reference [13]), transition-delay-fault coverage (the
// paper's delay-test claim), instruction encoding, and gate-level
// datapath co-simulation.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bist"
	"repro/internal/crypt"
	"repro/internal/ftest"
	"repro/internal/gatelib"
	"repro/internal/isa"
	"repro/internal/march"
	"repro/internal/power"
	"repro/internal/program"
	"repro/internal/rtl"
	"repro/internal/scan"
	"repro/internal/sched"
	"repro/internal/tta"
	"repro/internal/workloads"
)

// BenchmarkFunctionalTestApplication measures the paper's mechanism
// end-to-end: transporting the ATPG patterns through the MOVE buses into
// the component and validating the analytical f_tfu against the measured
// schedule.
func BenchmarkFunctionalTestApplication(b *testing.B) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderRipple})
	if err != nil {
		b.Fatal(err)
	}
	fu := tta.NewFU(tta.ALU, "alu")
	fu.Ports[0].Bus = 0
	fu.Ports[1].Bus = 1
	fu.Ports[2].Bus = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		camp, err := ftest.RunCampaign(alu, &fu, 3, ftest.Sequential, atpg.Config{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		if camp.Coverage() < 0.99 {
			b.Fatalf("functional coverage regressed: %s", camp)
		}
		if i == 0 {
			printFirst("Functional test application (measured vs eq. 11)", func() string {
				pipe, _ := ftest.MeasureTransport(&fu, 3, camp.Timing.Patterns, ftest.Pipelined)
				return fmt.Sprintf("%s\npipelined extension: %s", camp, pipe)
			})
		}
	}
}

// BenchmarkComparisonScanBISTFunctional regenerates the three-way test
// strategy comparison on the 16-bit ALU: full scan, pseudo-random BIST and
// the paper's functional approach.
func BenchmarkComparisonScanBISTFunctional(b *testing.B) {
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
		ev, err := bist.Evaluate(alu.Seq, res.Coverage(), 8192, 0xACE1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			nl := scan.ChainLength(alu.Seq)
			printFirst("Strategy comparison: scan vs BIST vs functional (ALU16)", func() string {
				scanCyc := scan.TestCycles(res.NumPatterns(), nl)
				funcCyc := res.NumPatterns() * 3
				bistAt := ev.PatternsToTarget
				bistStr := "not reached in 8192"
				if bistAt >= 0 {
					bistStr = fmt.Sprintf("%d cycles (1/pattern)", bistAt)
				}
				return fmt.Sprintf(
					"full scan  : %6d cycles, +%.0f area (scan FFs), FC %.2f%%\n"+
						"BIST       : %s to match FC, +%.0f area (LFSR+MISR), final FC %.2f%%\n"+
						"functional : %6d cycles, +0 area, FC %.2f%% (the paper's approach)",
					scanCyc, scan.AreaOverhead(alu.Seq), 100*res.Coverage(),
					bistStr, ev.AreaOverhead, 100*ev.FinalCoverage,
					funcCyc, 100*res.Coverage())
			})
		}
	}
}

// BenchmarkTDFCoverage measures the delay-fault side claim: transition
// coverage of the functionally streamed stuck-at set.
func BenchmarkTDFCoverage(b *testing.B) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderRipple})
	if err != nil {
		b.Fatal(err)
	}
	res, err := atpg.RunContext(context.Background(), alu.Comb, atpg.Config{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tdf := atpg.EvaluateTDF(alu.Comb, res.Patterns)
		if tdf.Coverage() < 0.5 {
			b.Fatalf("TDF coverage collapsed: %.2f", tdf.Coverage())
		}
		if i == 0 {
			printFirst("Delay-fault claim: TDF coverage of the streamed stuck-at set", func() string {
				reordered := atpg.EvaluateTDF(alu.Comb, atpg.OrderForTDF(res.Patterns))
				return fmt.Sprintf("as generated: %d/%d (%.1f%%); max-toggle order: %.1f%%",
					tdf.Detected, tdf.Total, 100*tdf.Coverage(), 100*reordered.Coverage())
			})
		}
	}
}

// BenchmarkISAEncode measures move-program encoding into long instruction
// words.
func BenchmarkISAEncode(b *testing.B) {
	arch := tta.Figure9()
	kernel, err := crypt.BuildRoundKernel(1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sched.ScheduleContext(context.Background(), kernel, arch, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := isa.Encode(res)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printFirst("Instruction encoding (crypt round on figure 9)", func() string {
				return fmt.Sprintf("%d instructions x %d bits = %d bits of code (%d moves)",
					len(p.Instrs), p.Format.InstrBits(), p.CodeBits(), len(res.Moves))
			})
		}
	}
}

// BenchmarkRTLCosim measures gate-level execution of a scheduled program
// on the assembled datapath.
func BenchmarkRTLCosim(b *testing.B) {
	arch := &tta.Architecture{
		Name: "rtlbench", Width: 16, Buses: 2,
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
	tta.AssignPorts(arch, tta.SpreadFirst)
	m, err := rtl.Build(arch, gatelib.NewLibrary())
	if err != nil {
		b.Fatal(err)
	}
	g := program.NewGraph("bench", 16)
	x := g.In()
	y := g.In()
	acc := g.Add(x, y)
	for i := 0; i < 6; i++ {
		acc = g.Xor(g.Add(acc, x), y)
	}
	g.Output(acc)
	res, err := sched.ScheduleContext(context.Background(), g, arch, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	want, err := program.Evaluate(g, []uint64{0x1234, 0x5678}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := m.RunSchedule(res, []uint64{0x1234, 0x5678}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if out[0] != want[0] {
			b.Fatalf("gates %#x, reference %#x", out[0], want[0])
		}
		if i == 0 {
			printFirst("RTL co-simulation", func() string {
				return fmt.Sprintf("datapath %s; %d cycles through the gates agree with the reference",
					m.Stats(), m.Cycles)
			})
		}
	}
}

// BenchmarkWorkloadProfiles measures scheduling across the application
// kernels with distinct operation mixes (the "application specific" axis).
func BenchmarkWorkloadProfiles(b *testing.B) {
	arch := tta.Figure9()
	kernels := map[string]*program.Graph{}
	if g, err := workloads.CRC16(2, 0x40); err == nil {
		kernels["crc16"] = g
	}
	if g, err := workloads.CountBelow(12); err == nil {
		kernels["countbelow"] = g
	}
	if g, err := workloads.Checksum(8, 0x40); err == nil {
		kernels["checksum"] = g
	}
	for name, g := range kernels {
		name, g := name, g
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sched.ScheduleContext(context.Background(), g, arch, sched.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					printFirst("Workload profile: "+name, func() string {
						return fmt.Sprintf("%v -> %d cycles on figure 9", g.Stats(), res.Cycles)
					})
				}
			}
		})
	}
}

// BenchmarkAblationSCOAPGuidance contrasts plain and testability-guided
// PODEM (references [8]/[9] context).
func BenchmarkAblationSCOAPGuidance(b *testing.B) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderRipple})
	if err != nil {
		b.Fatal(err)
	}
	for _, guided := range []bool{false, true} {
		guided := guided
		name := "plain"
		if guided {
			name = "scoap-guided"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := atpg.RunContext(context.Background(), alu.Comb, atpg.Config{Seed: 7, MaxRandomPatterns: -1, SCOAPGuidance: guided})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					printFirst("Ablation: PODEM "+name, func() string {
						return fmt.Sprintf("np=%d aborted=%d FC=%.2f%%", res.NumPatterns(), res.Aborted, 100*res.Coverage())
					})
				}
			}
		})
	}
}

// BenchmarkTwoPortMarch measures the two-port march of reference [15].
func BenchmarkTwoPortMarch(b *testing.B) {
	mem := march.NewTwoPortRAM(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := march.March2PF.Run(mem, 16, 0); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkExtensionEnergyAxis exercises the optional fourth metric: a
// calibrated energy model attached to the exploration.
func BenchmarkExtensionEnergyAxis(b *testing.B) {
	m, err := power.Calibrate(nil, 16, 7)
	if err != nil {
		b.Fatal(err)
	}
	arch := tta.Figure9()
	kernel, err := crypt.BuildRoundKernel(1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sched.ScheduleContext(context.Background(), kernel, arch, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := m.ScheduleEnergy(res, 8000)
		if e.Total <= 0 {
			b.Fatal("degenerate energy")
		}
		if i == 0 {
			printFirst("Extension: energy axis (crypt round, figure 9)", func() string {
				return fmt.Sprintf("%s per round; ~%.2e per hash", e, e.Total*float64(crypt.RoundsPerHash))
			})
		}
	}
}

// BenchmarkExtensionMultiChainScan regenerates the Table-1 footnote: with
// k scan chains both approaches speed up, and the functional approach
// keeps its advantage.
func BenchmarkExtensionMultiChainScan(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 1; k <= 8; k *= 2 {
			if scan.MultiChainAdvantage(86, 61, 3, 12, k) <= 1 {
				b.Fatalf("advantage lost at k=%d", k)
			}
		}
		if i == 0 {
			printFirst("Extension: multi-chain scan footnote", func() string {
				s := ""
				for k := 1; k <= 8; k *= 2 {
					s += fmt.Sprintf("k=%d: scan=%d cycles, advantage %.1fx\n",
						k, scan.MultiChainCycles(86, 61, k), scan.MultiChainAdvantage(86, 61, 3, 12, k))
				}
				return s
			})
		}
	}
}

// BenchmarkExtensionInstructionCompression measures the dictionary
// compression of the crypt loop's instruction stream.
func BenchmarkExtensionInstructionCompression(b *testing.B) {
	arch := tta.Figure9()
	kernel, err := crypt.BuildRoundKernel(1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sched.ScheduleContext(context.Background(), kernel, arch, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	p, err := isa.Encode(res)
	if err != nil {
		b.Fatal(err)
	}
	// The realistic stream: 400 repetitions of the round.
	rep := &isa.Program{Format: p.Format}
	for it := 0; it < 25; it++ {
		rep.Words = append(rep.Words, p.Words...)
		rep.Instrs = append(rep.Instrs, p.Instrs...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := rep.Compress()
		if _, err := c.Decompress(); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printFirst("Extension: instruction-stream compression", func() string {
				return fmt.Sprintf("%d words -> %d dictionary entries, ratio %.2f (%d -> %d bits)",
					len(rep.Words), len(c.Dict), c.Ratio(rep), rep.CodeBits(), c.TotalBits())
			})
		}
	}
}

// BenchmarkExtensionGateLevelDecode measures the complete binary path:
// raw instruction words through the gate-level socket decoder and
// datapath.
func BenchmarkExtensionGateLevelDecode(b *testing.B) {
	arch := &tta.Architecture{
		Name: "decbench", Width: 16, Buses: 2,
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
	tta.AssignPorts(arch, tta.SpreadFirst)
	m, err := rtl.Build(arch, gatelib.NewLibrary())
	if err != nil {
		b.Fatal(err)
	}
	d, err := rtl.BuildDecoded(m)
	if err != nil {
		b.Fatal(err)
	}
	g := program.NewGraph("bin", 16)
	x := g.In()
	y := g.In()
	g.Output(g.Xor(g.Add(x, y), g.Sll(x, g.ConstV(3))))
	res, err := sched.ScheduleContext(context.Background(), g, arch, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := isa.Encode(res)
	if err != nil {
		b.Fatal(err)
	}
	want, err := program.Evaluate(g, []uint64{0x0123, 0x4567}, nil)
	if err != nil {
		b.Fatal(err)
	}
	inLoc, outLoc := rtl.SeedsOf(res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := d.RunWords(prog, inLoc, []uint64{0x0123, 0x4567}, outLoc, nil)
		if err != nil {
			b.Fatal(err)
		}
		if got[0] != want[0] {
			b.Fatalf("decoded %#x, want %#x", got[0], want[0])
		}
		if i == 0 {
			printFirst("Extension: gate-level instruction decode", func() string {
				return fmt.Sprintf("%d-gate decoder + %d-gate datapath execute %d words correctly",
					d.Dec.Stats().Gates, m.Stats().Gates, len(prog.Words))
			})
		}
	}
}

// BenchmarkExtensionTestAsProgram compiles the ALU's functional test into
// a TTA program, schedules it, and replays it against injected gate
// faults.
func BenchmarkExtensionTestAsProgram(b *testing.B) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		b.Fatal(err)
	}
	arch := tta.Figure9()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		camp, err := ftest.RunProgramCampaign(arch, 0, alu, atpg.Config{Seed: 7}, 200)
		if err != nil {
			b.Fatal(err)
		}
		if camp.Coverage() < 0.9 {
			b.Fatalf("program campaign coverage regressed: %.3f", camp.Coverage())
		}
		if i == 0 {
			printFirst("Extension: the functional test as a TTA program", func() string {
				return fmt.Sprintf("%d patterns -> %d moves in %d cycles; %d/%d injected gate faults flip the response dump (%.1f%%)",
					camp.Applied, camp.Moves, camp.Cycles, camp.Detected, camp.TotalFaults, 100*camp.Coverage())
			})
		}
	}
}
