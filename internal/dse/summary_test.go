package dse

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/jobspec"
	"repro/internal/sched"
)

// TestScheduleSummaryMatchesFullOverSearchSpace is the scheduler's
// differential oracle on the architectures the guided search explores:
// for random genomes of the widened space and every workload, the
// summary the screen consumes equals the cost of the full schedule,
// errors included, and the full schedule passes sched.Check.
func TestScheduleSummaryMatchesFullOverSearchSpace(t *testing.T) {
	ctx := context.Background()
	for _, w := range jobspec.Workloads {
		cfg, err := DefaultConfig()
		if err != nil {
			t.Fatal(err)
		}
		if err := applyWorkload(&cfg, w); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2024))
		feasible := 0
		for i := 0; i < 60; i++ {
			g := randGenome(rng)
			arch := g.arch(cfg.Width, i)
			res, fullErr := sched.ScheduleContext(ctx, cfg.Workload, arch, sched.Options{})
			sum, sumErr := sched.SummarizeContext(ctx, cfg.Workload, arch, sched.Options{})
			if (fullErr == nil) != (sumErr == nil) || fullErr != nil && fullErr.Error() != sumErr.Error() {
				t.Fatalf("%s %s: errors differ: full %v, summary %v", w, g.key(), fullErr, sumErr)
			}
			if fullErr != nil {
				continue
			}
			feasible++
			if want := res.Summary(); sum != want {
				t.Fatalf("%s %s: summary %+v, full schedule %+v", w, g.key(), sum, want)
			}
			if err := sched.Check(res); err != nil {
				t.Fatalf("%s %s: %v", w, g.key(), err)
			}
		}
		if feasible == 0 {
			t.Fatalf("%s: no feasible genome among 60", w)
		}
	}
}
