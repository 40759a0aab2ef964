package sched

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/tta"
)

// fuzzArch builds an architecture from a few fuzzed knobs. Unit counts
// may be zero, so the fuzzer also reaches the missing-unit errors.
func fuzzArch(rng *rand.Rand, buses, regs uint8) *tta.Architecture {
	a := &tta.Architecture{Name: "fuzz", Width: 16, Buses: 1 + int(buses%4)}
	for i := 0; i < rng.Intn(4); i++ {
		a.Components = append(a.Components, tta.NewFU(tta.ALU, fmt.Sprintf("ALU%d", i+1)))
	}
	for i := 0; i < rng.Intn(3); i++ {
		a.Components = append(a.Components, tta.NewFU(tta.CMP, fmt.Sprintf("CMP%d", i+1)))
	}
	for i := 0; i < rng.Intn(4); i++ {
		n := 2 + int(regs%15) + rng.Intn(3)
		a.Components = append(a.Components, tta.NewRF(fmt.Sprintf("RF%d", i+1), n, 1+rng.Intn(2), 1+rng.Intn(3)))
	}
	for i := 0; i < rng.Intn(3); i++ {
		a.Components = append(a.Components, tta.NewFU(tta.LDST, fmt.Sprintf("LD/ST%d", i+1)))
	}
	a.Components = append(a.Components, tta.NewPC("PC"))
	for i := 0; i < rng.Intn(3); i++ {
		a.Components = append(a.Components, tta.NewIMM(fmt.Sprintf("IMM%d", i+1)))
	}
	tta.AssignPorts(a, tta.SpreadFirst)
	return a
}

// schedCounters returns the sched.* counters of a registry.
func schedCounters(r *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for name, v := range r.Snapshot().Counters {
		out[name] = v
	}
	return out
}

// checkSummaryMatchesFull is the differential oracle: the summary path
// must report exactly what the full schedule holds — same cost, same
// metrics, same error — and the full schedule must pass Check.
func checkSummaryMatchesFull(t *testing.T, g *program.Graph, arch *tta.Architecture, opts Options) {
	t.Helper()
	ctx := context.Background()
	fullReg, sumReg := obs.NewRegistry(), obs.NewRegistry()
	opts.Obs = fullReg
	res, fullErr := ScheduleContext(ctx, g, arch, opts)
	opts.Obs = sumReg
	sum, sumErr := SummarizeContext(ctx, g, arch, opts)
	if (fullErr == nil) != (sumErr == nil) || fullErr != nil && fullErr.Error() != sumErr.Error() {
		t.Fatalf("errors differ: full %v, summary %v", fullErr, sumErr)
	}
	if fc, sc := schedCounters(fullReg), schedCounters(sumReg); !reflect.DeepEqual(fc, sc) {
		t.Fatalf("metrics differ: full %v, summary %v", fc, sc)
	}
	if fullErr != nil {
		return
	}
	if want := res.Summary(); sum != want {
		t.Fatalf("summary %+v, full schedule %+v", sum, want)
	}
	if err := Check(res); err != nil {
		t.Fatalf("full schedule fails Check: %v", err)
	}
}

func FuzzScheduleSummary(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(1), uint8(6), false, uint16(0))
	f.Add(int64(2), uint8(90), uint8(0), uint8(0), true, uint16(0))
	f.Add(int64(3), uint8(10), uint8(3), uint8(14), false, uint16(30))
	f.Fuzz(func(t *testing.T, seed int64, nOps, buses, regs uint8, sourceOrder bool, maxCycles uint16) {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, int(nOps%150))
		arch := fuzzArch(rng, buses, regs)
		opts := Options{MaxCycles: int(maxCycles)}
		if sourceOrder {
			opts.Priority = SourceOrder
		}
		checkSummaryMatchesFull(t, g, arch, opts)
	})
}

// TestSchedulersConcurrentMatchSerial drives both entry points from
// several goroutines over mixed graphs and architectures: pooled scratch
// must never leak state between concurrent or consecutive schedules.
func TestSchedulersConcurrentMatchSerial(t *testing.T) {
	type job struct {
		g    *program.Graph
		arch *tta.Architecture
		opts Options
	}
	rng := rand.New(rand.NewSource(5))
	var jobs []job
	for i := 0; i < 24; i++ {
		opts := Options{}
		if i%3 == 0 {
			opts.Priority = SourceOrder
		}
		arch := simpleArch(1 + i%3)
		if i%2 == 1 {
			arch = fuzzArch(rng, uint8(i), uint8(rng.Intn(8)))
		}
		jobs = append(jobs, job{randomGraph(rng, 20+rng.Intn(60)), arch, opts})
	}
	ctx := context.Background()
	type outcome struct {
		res *Result
		sum Summary
		err string
	}
	run := func(j job) outcome {
		var o outcome
		res, err := ScheduleContext(ctx, j.g, j.arch, j.opts)
		sum, serr := SummarizeContext(ctx, j.g, j.arch, j.opts)
		if err != nil {
			o.err = err.Error()
		}
		if serr != nil {
			o.err += " / " + serr.Error()
		}
		o.res, o.sum = res, sum
		return o
	}
	want := make([]outcome, len(jobs))
	for i, j := range jobs {
		want[i] = run(j)
	}

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range jobs {
					i := (k*(w+1) + round) % len(jobs)
					if got := run(jobs[i]); !reflect.DeepEqual(got, want[i]) {
						errs <- fmt.Errorf("worker %d job %d: concurrent result differs from serial", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPlanTracksGraphEdits schedules a graph, extends it, and schedules
// it again: the cached per-graph plan must not serve the old shape.
func TestPlanTracksGraphEdits(t *testing.T) {
	g := chainGraph(4)
	arch := simpleArch(2)
	before, err := SummarizeContext(context.Background(), g, arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	one := g.ConstV(1)
	g.Output(g.Add(g.Outputs[0], one))
	after, err := SummarizeContext(context.Background(), g, arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Moves <= before.Moves {
		t.Fatalf("edited graph: %d moves, before the edit %d", after.Moves, before.Moves)
	}
	checkSummaryMatchesFull(t, g, arch, Options{})
}
