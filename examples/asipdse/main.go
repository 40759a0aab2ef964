// Asipdse shows why the exploration is *application specific*: three
// kernels with different operation mixes (bit-serial CRC, a comparison
// tree, a streaming checksum) are scheduled across the same architecture
// family, and their resource sensitivities and selected designs diverge.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/dse"
	"repro/internal/program"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/testcost"
	"repro/internal/tta"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)

	crc, err := workloads.CRC16(2, 0x40)
	if err != nil {
		log.Fatal(err)
	}
	cb, err := workloads.CountBelow(12)
	if err != nil {
		log.Fatal(err)
	}
	cs, err := workloads.Checksum(8, 0x40)
	if err != nil {
		log.Fatal(err)
	}

	// Resource sensitivity: cycles on 1 vs 2 ALUs / CMPs.
	tbl := report.NewTable("Kernel resource sensitivity (cycles)",
		"kernel", "mix", "base", "+1 ALU", "+1 CMP")
	base := buildArch(1, 1)
	moreALU := buildArch(2, 1)
	moreCMP := buildArch(1, 2)
	for _, g := range []*program.Graph{crc, cb, cs} {
		st := g.Stats()
		mix := fmt.Sprintf("alu=%d cmp=%d ld=%d", st.ALU, st.CMP, st.Loads)
		tbl.AddRow(g.Name, mix, cycles(g, base), cycles(g, moreALU), cycles(g, moreCMP))
	}
	fmt.Print(tbl.String())
	fmt.Println()

	// Per-application test-aware exploration.
	ann := testcost.NewAnnotator(16, 7)
	sel := report.NewTable("Per-application selection (equal-weight norm)",
		"kernel", "selected architecture", "area", "exec time", "test cost")
	for _, g := range []*program.Graph{crc, cb, cs} {
		cfg, err := dse.DefaultConfig()
		if err != nil {
			log.Fatal(err)
		}
		cfg.Workload = g
		cfg.WorkloadReps = 1000
		cfg.Buses = []int{2, 3}
		cfg.ALUCounts = []int{1, 2}
		cfg.CMPCounts = []int{1, 2}
		cfg.RFSets = cfg.RFSets[3:4]
		cfg.Assigns = []tta.AssignStrategy{tta.SpreadFirst}
		cfg.Annotator = ann
		res, err := dse.ExploreContext(context.Background(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		c := res.Candidates[res.Selected]
		sel.AddRow(g.Name, c.Arch.String(), c.Area, c.ExecTime, c.TestCost)
	}
	fmt.Print(sel.String())
}

func buildArch(alus, cmps int) *tta.Architecture {
	a := &tta.Architecture{Name: fmt.Sprintf("a%dc%d", alus, cmps), Width: 16, Buses: 3}
	for i := 0; i < alus; i++ {
		a.Components = append(a.Components, tta.NewFU(tta.ALU, fmt.Sprintf("ALU%d", i+1)))
	}
	for i := 0; i < cmps; i++ {
		a.Components = append(a.Components, tta.NewFU(tta.CMP, fmt.Sprintf("CMP%d", i+1)))
	}
	a.Components = append(a.Components,
		tta.NewRF("RF1", 12, 1, 2), tta.NewRF("RF2", 12, 1, 2),
		tta.NewFU(tta.LDST, "LD/ST"), tta.NewPC("PC"), tta.NewIMM("Immediate"))
	tta.AssignPorts(a, tta.SpreadFirst)
	return a
}

func cycles(g *program.Graph, a *tta.Architecture) int {
	res, err := sched.ScheduleContext(context.Background(), g, a, sched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	return res.Cycles
}
