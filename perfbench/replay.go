package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/atpg"
	"repro/internal/dse"
	"repro/internal/gatelib"
	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/testcost"
	"repro/internal/tta"
)

// replayItem is one fully evaluated candidate of a traced iteration: the
// kernel it was scheduled for and its architecture.
type replayItem struct {
	g    *program.Graph
	arch *tta.Architecture
}

func replayItems(cfg dse.Config, res *dse.Result) []replayItem {
	var out []replayItem
	for _, i := range res.Feasible {
		out = append(out, replayItem{g: cfg.Workload, arch: res.Candidates[i].Arch})
	}
	return out
}

// replayLayers re-runs single layers on the traced run's own candidates,
// each through its public entry point, and checks every schedule:
//   - sched.ScheduleContext on each candidate (time, bytes and
//     allocations per call; every schedule must pass sched.Check);
//   - Annotator.EvaluateBoundContext on a cold annotator;
//   - atpg.RunContext on each distinct component netlist;
//   - jobspec Normalize/Validate/Hash plus dse.FromSpec on the specs.
func replayLayers(ctx context.Context, tr *tracer, res *result, items []replayItem, width int, seed int64, limit int, specs []jobspec.Spec) {
	if len(items) > limit {
		items = items[:limit]
	}
	if len(items) == 0 {
		res.fail("traced run kept no candidate to replay")
		return
	}

	// Scheduler.
	var m0, m1 runtime.MemStats
	schedules := make([]*sched.Result, 0, len(items))
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, it := range items {
		s, err := sched.ScheduleContext(ctx, it.g, it.arch, sched.Options{})
		if err != nil {
			res.attempted++
			res.fail("replayed schedule of %s: %v", it.arch.Name, err)
			continue
		}
		schedules = append(schedules, s)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := float64(len(items))
	tr.fixed["sched.ns_per_call"] = float64(elapsed.Nanoseconds()) / n
	tr.fixed["sched.bytes_per_call"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	tr.fixed["sched.allocs_per_call"] = float64(m1.Mallocs-m0.Mallocs) / n
	for _, s := range schedules {
		res.attempted++
		if err := sched.Check(s); err != nil {
			res.fail("sched.Check on %s: %v", s.Arch.Name, err)
		}
	}

	// SCOAP bound tier on a cold annotator.
	reg := obs.NewRegistry()
	ann := testcost.NewAnnotator(width, seed)
	ann.Obs = reg
	t0 = time.Now()
	for _, it := range items {
		if _, err := ann.EvaluateBoundContext(ctx, it.arch); err != nil {
			res.attempted++
			res.fail("bound tier on %s: %v", it.arch.Name, err)
		}
	}
	tr.fixed["testcost.bound_ns_per_call"] = float64(time.Since(t0).Nanoseconds()) / n
	hit, miss := reg.Counter("testcost.bound.hit").Value(), reg.Counter("testcost.bound.miss").Value()
	tr.fixed["testcost.bound_hit_ratio"] = ratio(float64(hit), float64(hit+miss))

	// Gate-level ATPG, once per distinct component netlist.
	lib := testcost.NewAnnotator(width, seed).Lib
	comps := map[string]*tta.Component{}
	for _, it := range items {
		for ci := range it.arch.Components {
			c := &it.arch.Components[ci]
			comps[componentKey(c)] = c
		}
	}
	keys := make([]string, 0, len(comps))
	for k := range comps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var runMax, runSum time.Duration
	for _, k := range keys {
		gc, err := componentNetlist(lib, comps[k], width)
		if err == nil {
			t0 = time.Now()
			_, err = atpg.RunContext(ctx, gc.Seq, atpg.Config{Seed: seed, Workers: 1})
			d := time.Since(t0)
			runMax, runSum = max(runMax, d), runSum+d
		}
		if err != nil {
			res.attempted++
			res.fail("ATPG replay of %s: %v", k, err)
		}
	}
	tr.fixed["atpg.run_max_s"] = runMax.Seconds()
	tr.fixed["atpg.run_sum_s"] = runSum.Seconds()

	// Job description to runnable config.
	const prepRounds = 200
	t0 = time.Now()
	for r := 0; r < prepRounds; r++ {
		for _, s := range specs {
			s.Normalize()
			if err := s.Validate(); err != nil {
				res.attempted++
				res.fail("jobspec.Validate: %v", err)
			}
			_ = s.Hash()
			if _, _, err := dse.FromSpec(s); err != nil {
				res.attempted++
				res.fail("dse.FromSpec: %v", err)
			}
		}
	}
	tr.fixed["jobspec.prepare_us"] = float64(time.Since(t0).Microseconds()) / float64(prepRounds*len(specs))
}

// componentKey names a component's gate-level netlist: kind plus the
// parameters the library generates it from.
func componentKey(c *tta.Component) string {
	return fmt.Sprintf("%v/%d/%d/%d/%d", c.Kind, c.Adder, c.NumRegs, c.NumIn, c.NumOut)
}

// componentNetlist generates c's netlist from the gate-level library.
func componentNetlist(lib *gatelib.Library, c *tta.Component, width int) (*gatelib.Component, error) {
	switch c.Kind {
	case tta.ALU:
		return lib.ALU(gatelib.ALUConfig{Width: width, Adder: c.Adder})
	case tta.CMP:
		return lib.CMP(width)
	case tta.RF:
		return lib.RF(gatelib.RFConfig{Width: width, NumRegs: c.NumRegs, NumIn: c.NumIn, NumOut: c.NumOut})
	case tta.LDST:
		return lib.LDST(width)
	case tta.PC:
		return lib.PC(width)
	case tta.IMM:
		return lib.IMM(width)
	}
	return nil, fmt.Errorf("unknown component kind %v", c.Kind)
}
