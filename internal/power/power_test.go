package power

import (
	"context"
	"testing"

	"repro/internal/crypt"
	"repro/internal/gatelib"
	"repro/internal/sched"
	"repro/internal/tta"
	"repro/internal/workloads"
)

var sharedModel *Model

func model(t *testing.T) *Model {
	t.Helper()
	if sharedModel == nil {
		m, err := Calibrate(gatelib.NewLibrary(), 16, 7)
		if err != nil {
			t.Fatal(err)
		}
		sharedModel = m
	}
	return sharedModel
}

func TestCalibrationProducesSaneCosts(t *testing.T) {
	m := model(t)
	for _, k := range []tta.Kind{tta.ALU, tta.CMP, tta.LDST} {
		if m.PerOp[k] <= 0 {
			t.Errorf("%s per-op energy %.1f not positive", k, m.PerOp[k])
		}
	}
	// An ALU op switches far more logic than an RF access (registers only).
	if m.PerOp[tta.ALU] <= m.RFAccess {
		t.Errorf("ALU op %.1f not above RF access %.1f", m.PerOp[tta.ALU], m.RFAccess)
	}
	t.Logf("calibrated: ALU=%.0f CMP=%.0f LDST=%.0f RF=%.0f toggles",
		m.PerOp[tta.ALU], m.PerOp[tta.CMP], m.PerOp[tta.LDST], m.RFAccess)
}

func TestCalibrationDeterministic(t *testing.T) {
	m1, err := Calibrate(nil, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Calibrate(nil, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m1.PerOp[tta.ALU] != m2.PerOp[tta.ALU] || m1.RFAccess != m2.RFAccess {
		t.Fatal("nondeterministic calibration")
	}
}

func TestScheduleEnergyBreakdown(t *testing.T) {
	m := model(t)
	arch := tta.Figure9()
	kernel, err := crypt.BuildRoundKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.ScheduleContext(context.Background(), kernel, arch, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := m.ScheduleEnergy(res, 8000)
	if e.Total <= 0 || e.Transport <= 0 || e.Compute <= 0 || e.Storage <= 0 || e.Leakage <= 0 {
		t.Fatalf("degenerate estimate: %s", e)
	}
	if got := e.Transport + e.Compute + e.Storage + e.Leakage; got != e.Total {
		t.Fatalf("components %.1f do not sum to total %.1f", got, e.Total)
	}
	t.Logf("crypt round on figure 9: %s", e)
}

func TestEnergyTradeoffMoreUnitsLessTimeMoreLeakPerCycle(t *testing.T) {
	// A second ALU shortens the schedule (less leakage time) but grows the
	// area (more leakage per cycle); dynamic energy stays roughly equal
	// (same work). The model must expose this trade coherently.
	m := model(t)
	g, err := workloads.Checksum(8, 0x40)
	if err != nil {
		t.Fatal(err)
	}
	small := tta.Figure9()
	big := tta.Figure9()
	big.Components = append(big.Components, tta.NewFU(tta.ALU, "ALU2"))
	tta.AssignPorts(big, tta.SpreadFirst)

	resS, err := sched.ScheduleContext(context.Background(), g, small, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := sched.ScheduleContext(context.Background(), g, big, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	areaS, areaB := 8000.0, 9300.0
	eS := m.ScheduleEnergy(resS, areaS)
	eB := m.ScheduleEnergy(resB, areaB)
	// Same computation: dynamic parts must be close.
	dynS := eS.Total - eS.Leakage
	dynB := eB.Total - eB.Leakage
	if dynB > 1.3*dynS || dynS > 1.3*dynB {
		t.Errorf("dynamic energy diverged: %.0f vs %.0f for the same work", dynS, dynB)
	}
	// Leakage per cycle grows with area.
	if eB.Leakage/float64(resB.Cycles) <= eS.Leakage/float64(resS.Cycles) {
		t.Error("larger architecture does not leak more per cycle")
	}
	t.Logf("1 ALU: %d cycles, %s; 2 ALUs: %d cycles, %s", resS.Cycles, eS, resB.Cycles, eB)
}

func TestEnergyScalesWithWork(t *testing.T) {
	m := model(t)
	arch := tta.Figure9()
	one, err := crypt.BuildRoundKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := crypt.BuildRoundKernel(4)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sched.ScheduleContext(context.Background(), one, arch, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := sched.ScheduleContext(context.Background(), four, arch, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := m.ScheduleEnergy(r1, 8000)
	e4 := m.ScheduleEnergy(r4, 8000)
	if e4.Total < 3*e1.Total {
		t.Errorf("4 rounds cost %.0f, less than 3x one round's %.0f", e4.Total, e1.Total)
	}
}
