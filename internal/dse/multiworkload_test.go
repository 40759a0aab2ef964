package dse

import (
	"context"
	"testing"

	"repro/internal/pareto"
	"repro/internal/power"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/tta"
	"repro/internal/workloads"
)

func mustSchedule(t *testing.T, g *program.Graph, a *tta.Architecture) int {
	t.Helper()
	res, err := sched.ScheduleContext(context.Background(), g, a, sched.Options{})
	if err != nil {
		t.Fatalf("%s on %s: %v", g.Name, a.Name, err)
	}
	return res.Cycles
}

// TestApplicationSpecificResourceSensitivity verifies the "application
// specific" premise of the exploration: the comparator-heavy VecMax kernel
// speeds up with a second CMP unit, while the comparator-free CRC kernel
// is completely insensitive to it.
func TestApplicationSpecificResourceSensitivity(t *testing.T) {
	oneCmp := &tta.Architecture{
		Name: "cmp1", Width: 16, Buses: 3,
		Components: []tta.Component{
			tta.NewFU(tta.ALU, "ALU1"),
			tta.NewFU(tta.ALU, "ALU2"),
			tta.NewFU(tta.CMP, "CMP1"),
			tta.NewRF("RF1", 12, 1, 2),
			tta.NewRF("RF2", 12, 1, 2),
			tta.NewFU(tta.LDST, "LD/ST"),
			tta.NewPC("PC"),
			tta.NewIMM("Immediate"),
		},
	}
	tta.AssignPorts(oneCmp, tta.SpreadFirst)
	twoCmp := oneCmp.Clone()
	twoCmp.Name = "cmp2"
	twoCmp.Components = append(twoCmp.Components, tta.NewFU(tta.CMP, "CMP2"))
	tta.AssignPorts(twoCmp, tta.SpreadFirst)

	cb, err := workloads.CountBelow(12)
	if err != nil {
		t.Fatal(err)
	}
	crc, err := workloads.CRC16(2, 0x40)
	if err != nil {
		t.Fatal(err)
	}

	cb1 := mustSchedule(t, cb, oneCmp)
	cb2 := mustSchedule(t, cb, twoCmp)
	crc1 := mustSchedule(t, crc, oneCmp)
	crc2 := mustSchedule(t, crc, twoCmp)

	if float64(cb2) > 0.85*float64(cb1) {
		t.Errorf("CountBelow: second comparator helped too little (%d vs %d cycles)", cb2, cb1)
	}
	if crc2 != crc1 {
		t.Errorf("CRC16: comparator count changed cycles (%d vs %d) despite zero CMP ops", crc2, crc1)
	}
	t.Logf("CountBelow: %d -> %d cycles with a second CMP; CRC16: %d -> %d", cb1, cb2, crc1, crc2)
}

// TestPerWorkloadSelectionsDiffer runs the full test-aware exploration for
// two applications with opposite profiles and checks each converges (the
// per-application fronts are what an ASIP designer compares).
func TestPerWorkloadSelectionsDiffer(t *testing.T) {
	base, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	// Trim the space for runtime; keep CMP count as a dimension.
	base.Buses = []int{2, 3}
	base.ALUCounts = []int{1, 2}
	base.CMPCounts = []int{1, 2}
	base.RFSets = base.RFSets[3:4] // {12,1,2} x2
	base.Assigns = []tta.AssignStrategy{tta.SpreadFirst}
	base.Annotator = explore(t).Config.Annotator // reuse ATPG cache

	vm, err := workloads.VecMax(16, 0x40)
	if err != nil {
		t.Fatal(err)
	}
	crc, err := workloads.CRC16(2, 0x40)
	if err != nil {
		t.Fatal(err)
	}

	cfgVM := base
	cfgVM.Workload = vm
	cfgVM.WorkloadReps = 1000
	resVM, err := ExploreContext(context.Background(), cfgVM)
	if err != nil {
		t.Fatal(err)
	}
	cfgCRC := base
	cfgCRC.Workload = crc
	cfgCRC.WorkloadReps = 1000
	resCRC, err := ExploreContext(context.Background(), cfgCRC)
	if err != nil {
		t.Fatal(err)
	}

	selVM := resVM.Candidates[resVM.Selected].Arch
	selCRC := resCRC.Candidates[resCRC.Selected].Arch
	t.Logf("VecMax selects %s; CRC16 selects %s", selVM, selCRC)
	// CRC never selects a second comparator (pure waste on its profile).
	if len(selCRC.ComponentsOf(tta.CMP)) != 1 {
		t.Errorf("CRC16 exploration selected %d comparators", len(selCRC.ComponentsOf(tta.CMP)))
	}
}

// TestEnergyAxisExtension exercises the optional fourth metric: with an
// energy model attached, every feasible candidate carries an estimate and
// a 4-D (area, time, test, energy) front contains the 3-D front.
func TestEnergyAxisExtension(t *testing.T) {
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Buses = []int{2, 3}
	cfg.ALUCounts = []int{1, 2}
	cfg.CMPCounts = []int{1}
	cfg.RFSets = cfg.RFSets[1:3]
	cfg.Assigns = []tta.AssignStrategy{tta.SpreadFirst}
	cfg.Annotator = explore(t).Config.Annotator
	m, err := power.Calibrate(nil, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.EnergyModel = m
	res, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range res.Feasible {
		if res.Candidates[i].Energy <= 0 {
			t.Fatalf("candidate %s lacks an energy estimate", res.Candidates[i].Arch.Name)
		}
	}
	// 4-D front ⊇ 3-D front (adding an axis never removes a member).
	var pts3, pts4 []pareto.Point
	for _, i := range res.Feasible {
		c := &res.Candidates[i]
		pts3 = append(pts3, pareto.Point{ID: i, Coords: c.Coords()})
		pts4 = append(pts4, pareto.Point{ID: i, Coords: append(c.Coords(), c.Energy)})
	}
	in4 := map[int]bool{}
	for _, pi := range pareto.Front(pts4) {
		in4[pts4[pi].ID] = true
	}
	for _, pi := range pareto.Front(pts3) {
		if !in4[pts3[pi].ID] {
			t.Fatalf("3-D front member %d lost in 4-D", pts3[pi].ID)
		}
	}
}
