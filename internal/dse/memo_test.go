package dse

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tta"
)

// TestScheduleMemoSharesStructuralWork explores one structure under every
// assign strategy and checks (a) the structural evaluation ran once (memo
// miss == distinct structures), (b) the variants share cycle count and
// area, and (c) every candidate's values are identical to an unshared
// evaluation — memoization changes when work runs, never its result.
func TestScheduleMemoSharesStructuralWork(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Assigns = []tta.AssignStrategy{tta.SpreadFirst, tta.RoundRobin, tta.Packed}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	res, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 3 {
		t.Fatalf("%d candidates, want 3 assign variants", len(res.Candidates))
	}

	miss := reg.Counter("dse.sched.memo.miss").Value()
	hit := reg.Counter("dse.sched.memo.hit").Value()
	if miss != 1 {
		t.Errorf("memo miss = %d, want 1 (one structure)", miss)
	}
	if hit != 2 {
		t.Errorf("memo hit = %d, want 2 (remaining variants)", hit)
	}

	base := &res.Candidates[0]
	for i := 1; i < len(res.Candidates); i++ {
		c := &res.Candidates[i]
		if c.Cycles != base.Cycles || c.Spills != base.Spills || c.Area != base.Area ||
			c.Clock != base.Clock || c.ExecTime != base.ExecTime {
			t.Errorf("variant %d structural axes differ from variant 0: %+v vs %+v", i, c, base)
		}
	}

	// Cross-check against evaluations that cannot share: a fresh memo per
	// candidate.
	cfgCopy := cfg
	if err := cfgCopy.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	for i := range res.Candidates {
		want, err := evaluate(context.Background(), &cfgCopy, res.Candidates[i].Arch, nil, newSchedMemo())
		if err != nil {
			t.Fatal(err)
		}
		got := res.Candidates[i]
		got.Arch, want.Arch = nil, nil
		if got != want {
			t.Errorf("candidate %d: memoized %+v != unshared %+v", i, got, want)
		}
	}
}

// TestStructKeyIgnoresAssignment pins the memo key contract: variants of
// one structure collide, any structural change (width, buses, FU mix, RF
// shape, adder) separates.
func TestStructKeyIgnoresAssignment(t *testing.T) {
	base := buildArch(16, 2, 1, 1, []RFSpec{{8, 1, 1}}, tta.SpreadFirst, 0, 0)
	variant := buildArch(16, 2, 1, 1, []RFSpec{{8, 1, 1}}, tta.Packed, 1, 0)
	if structKey(base) != structKey(variant) {
		t.Errorf("assign variants got different keys:\n%s\n%s", structKey(base), structKey(variant))
	}
	distinct := []*tta.Architecture{
		buildArch(8, 2, 1, 1, []RFSpec{{8, 1, 1}}, tta.SpreadFirst, 2, 0),   // width
		buildArch(16, 3, 1, 1, []RFSpec{{8, 1, 1}}, tta.SpreadFirst, 3, 0),  // buses
		buildArch(16, 2, 2, 1, []RFSpec{{8, 1, 1}}, tta.SpreadFirst, 4, 0),  // ALUs
		buildArch(16, 2, 1, 2, []RFSpec{{8, 1, 1}}, tta.SpreadFirst, 5, 0),  // CMPs
		buildArch(16, 2, 1, 1, []RFSpec{{12, 1, 1}}, tta.SpreadFirst, 6, 0), // RF shape
	}
	seen := map[string]bool{structKey(base): true}
	for _, a := range distinct {
		k := structKey(a)
		if seen[k] {
			t.Errorf("structural change did not change the key: %s (%s)", k, a.Name)
		}
		seen[k] = true
	}
	adder := buildArch(16, 2, 1, 1, []RFSpec{{8, 1, 1}}, tta.SpreadFirst, 7, 0)
	for ci := range adder.Components {
		if adder.Components[ci].Kind == tta.ALU {
			adder.Components[ci].Adder = 1 // carry-select
		}
	}
	if structKey(adder) == structKey(base) {
		t.Error("adder microarchitecture missing from the structural key")
	}
}

// TestUtilizationGaugeSetOnEveryExit pins the fixed exit-path contract:
// the dse.worker.utilization gauge is published whether the exploration
// completes, fails on configuration, or is cancelled mid-run.
func TestUtilizationGaugeSetOnEveryExit(t *testing.T) {
	gaugeSet := func(reg *obs.Registry) bool {
		_, ok := reg.Snapshot().Gauges["dse.worker.utilization"]
		return ok
	}

	// Completed run.
	cfg := smallConfig(t)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	if _, err := ExploreContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if !gaugeSet(reg) {
		t.Error("gauge unset after a completed run")
	}

	// Configuration-error exit.
	cfg = smallConfig(t)
	cfg.Parallelism = -1
	reg = obs.NewRegistry()
	cfg.Obs = reg
	if _, err := ExploreContext(context.Background(), cfg); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	if !gaugeSet(reg) {
		t.Error("gauge unset after a configuration-error exit")
	}

	// Cancelled mid-evaluation exit.
	cfg = smallConfig(t)
	reg = obs.NewRegistry()
	cfg.Obs = reg
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := ExploreContext(ctx, cfg); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	if !gaugeSet(reg) {
		t.Error("gauge unset after a cancelled run")
	}
}
