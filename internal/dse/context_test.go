package dse

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tta"
)

// smallConfig is a one-candidate space at a narrow width, cheap enough
// for instrumentation tests.
func smallConfig(t *testing.T) Config {
	t.Helper()
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Width = 8
	cfg.Buses = []int{2}
	cfg.ALUCounts = []int{1}
	cfg.CMPCounts = []int{1}
	cfg.RFSets = [][]RFSpec{{{16, 2, 2}, {16, 1, 2}}}
	cfg.Assigns = []tta.AssignStrategy{tta.SpreadFirst}
	cfg.Annotator = nil // rebuild for the narrow width
	return cfg
}

func TestExploreContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := smallConfig(t)
	res, err := ExploreContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PartialError", err)
	}
	if pe.Evaluated != 0 || pe.Total != 1 {
		t.Fatalf("partial = %d/%d, want 0/1", pe.Evaluated, pe.Total)
	}
	if res == nil {
		t.Fatal("cancelled exploration returned no result at all")
	}
	if len(res.Feasible) != 0 || res.Selected != -1 {
		t.Fatalf("never-started exploration claims evaluations: %+v", res)
	}
}

// TestExploreContextCancelMidRun cancels a paper-scale exploration
// shortly after it starts and checks it aborts promptly, returns a
// *PartialError unwrapping to the context error alongside the salvaged
// partial result, and leaks no goroutine.
func TestExploreContextCancelMidRun(t *testing.T) {
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := ExploreContext(ctx, cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PartialError", err)
	}
	if res == nil {
		t.Fatal("cancelled exploration dropped the partial result")
	}
	if pe.Evaluated >= pe.Total {
		t.Fatalf("mid-run cancellation evaluated %d/%d candidates", pe.Evaluated, pe.Total)
	}
	// Whatever did finish must be internally consistent: fronts only over
	// evaluated candidates, selection only when a front exists.
	for _, i := range res.Feasible {
		if res.Candidates[i].Arch == nil {
			t.Fatalf("feasible index %d points at a never-evaluated slot", i)
		}
	}
	if len(res.Front3D) > 0 && res.Selected < 0 {
		t.Fatal("non-empty front but no selection")
	}
	// The full exploration takes far longer than this bound; returning
	// within it shows cancellation propagated into the in-flight
	// evaluations rather than waiting for them to finish naturally.
	if elapsed > 15*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// All worker goroutines must have exited.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after cancellation",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestExploreRejectsNegativeParallelism(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Parallelism = -1
	if _, err := ExploreContext(context.Background(), cfg); err == nil {
		t.Fatal("Explore accepted negative Parallelism")
	}
}

// TestExploreContextMetrics runs an instrumented one-candidate
// exploration (with selected-candidate simulation) and checks the
// registry carries the per-stage spans and the engine counters the
// observability layer promises.
func TestExploreContextMetrics(t *testing.T) {
	cfg := smallConfig(t)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	cfg.VerifySelected = true
	res, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("selected candidate was not sim-verified")
	}
	snap := reg.Snapshot()

	if got := snap.Counters["dse.candidates.total"]; got != 1 {
		t.Fatalf("dse.candidates.total = %d, want 1", got)
	}
	if snap.Counters["dse.candidates.feasible"]+snap.Counters["dse.candidates.infeasible"] != 1 {
		t.Fatalf("feasible+infeasible != total: %+v", snap.Counters)
	}
	for _, c := range []string{"sched.cycles", "sched.moves", "atpg.podem.decisions",
		"atpg.patterns.final", "testcost.cache.miss", "sim.cycles"} {
		if snap.Counters[c] <= 0 {
			t.Fatalf("counter %s = %d, want > 0 (have %+v)", c, snap.Counters[c], snap.Counters)
		}
	}
	// AreaDelayContext and EvaluateContext hit the same annotations: there must be
	// cache hits, and the computed rate gauge must agree.
	hit, miss := snap.Counters["testcost.cache.hit"], snap.Counters["testcost.cache.miss"]
	if hit == 0 {
		t.Fatal("annotator cache recorded no hit")
	}
	wantRate := float64(hit) / float64(hit+miss)
	if got := snap.Gauges["testcost.cache.hit_rate"]; got != wantRate {
		t.Fatalf("hit_rate gauge = %v, want %v", got, wantRate)
	}

	// Span tree: dse > {enumerate, evaluate > {sched, atpg}, pareto, sim}.
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "dse" {
		t.Fatalf("root span missing: %+v", snap.Spans)
	}
	stages := map[string]obs.SpanStats{}
	for _, c := range snap.Spans[0].Children {
		stages[c.Name] = c
	}
	for _, name := range []string{"enumerate", "evaluate", "pareto", "sim"} {
		if stages[name].Count == 0 {
			t.Fatalf("stage span %q missing (have %+v)", name, snap.Spans[0].Children)
		}
	}
	inner := map[string]bool{}
	for _, c := range stages["evaluate"].Children {
		inner[c.Name] = c.Count > 0
	}
	if !inner["sched"] || !inner["atpg"] {
		t.Fatalf("evaluate span missing sched/atpg children: %+v", stages["evaluate"].Children)
	}
}

// TestExploreContextProgressEvents checks one event per candidate is
// emitted with a running N/Total.
func TestExploreContextProgressEvents(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Buses = []int{1, 2} // two candidates
	reg := obs.NewRegistry()
	cfg.Obs = reg
	var events []obs.Event
	reg.Subscribe(func(ev obs.Event) { events = append(events, ev) })
	cfg.Parallelism = 1 // serial: the subscriber slice is unsynchronized
	if _, err := ExploreContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	var candidates int
	for _, ev := range events {
		if ev.Kind == "candidate" {
			candidates++
			if ev.Total != 2 || ev.N < 1 || ev.N > 2 {
				t.Fatalf("bad progress event %+v", ev)
			}
		}
	}
	if candidates != 2 {
		t.Fatalf("got %d candidate events, want 2", candidates)
	}
}
