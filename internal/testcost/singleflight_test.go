package testcost

import (
	"context"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/tta"
)

// TestAnnotatorSingleFlight hammers one annotator from many goroutines
// with overlapping keys (run under -race via the tier-1 recipe) and
// asserts the single-flight contract: exactly one ATPG run per distinct
// key — the miss counter equals the distinct-key count no matter how many
// requests collide — with every other request either a cache hit or a
// coalesced in-flight wait.
func TestAnnotatorSingleFlight(t *testing.T) {
	a := NewAnnotator(4, 7) // narrow width keeps the per-key ATPG cheap
	reg := obs.NewRegistry()
	a.Obs = reg

	comps := []tta.Component{
		tta.NewFU(tta.ALU, "ALU"),
		tta.NewFU(tta.CMP, "CMP"),
		tta.NewRF("RF1", 8, 1, 1),
		tta.NewRF("RF2", 4, 1, 2),
		tta.NewFU(tta.LDST, "LD/ST"),
		tta.NewPC("PC"),
		tta.NewIMM("Immediate"),
	}
	distinct := len(comps) // every component maps to its own cache key

	const goroutines = 16
	const rounds = 3
	ctx := context.Background()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				for k := range comps {
					// Rotate the visiting order per goroutine so every key
					// sees concurrent first requests.
					c := &comps[(k+g)%len(comps)]
					an, err := a.componentAnnotation(ctx, c)
					if err != nil {
						t.Errorf("goroutine %d: %s: %v", g, c.Name, err)
						return
					}
					if an.np <= 0 || an.nl <= 0 {
						t.Errorf("goroutine %d: %s: empty annotation %+v", g, c.Name, an)
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	miss := reg.Counter("testcost.cache.miss").Value()
	hit := reg.Counter("testcost.cache.hit").Value()
	inflight := reg.Counter("testcost.cache.inflight").Value()
	if miss != int64(distinct) {
		t.Errorf("miss counter = %d, want exactly %d (one ATPG run per distinct key)", miss, distinct)
	}
	total := int64(goroutines * rounds * len(comps))
	if hit+inflight+miss != total {
		t.Errorf("hit(%d) + inflight(%d) + miss(%d) = %d, want every request accounted for (%d)",
			hit, inflight, miss, hit+inflight+miss, total)
	}
	if inflight > 0 && reg.Counter("testcost.cache.wait_ns").Value() <= 0 {
		t.Errorf("inflight waits recorded (%d) but wait_ns is zero", inflight)
	}
}

// TestAnnotatorSingleFlightDeterministic repeats an evaluation through
// the concurrent path and checks the cached annotations produce the same
// totals as a fresh serial annotator — single-flight must not change any
// value, only when it is computed.
func TestAnnotatorSingleFlightDeterministic(t *testing.T) {
	arch := tta.Figure9()
	fresh := NewAnnotator(16, 7)

	var wg sync.WaitGroup
	results := make([]int, 8)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cost, err := fresh.EvaluateContext(context.Background(), arch)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			results[g] = cost.Total
		}(g)
	}
	wg.Wait()

	want, err := sharedAnn.EvaluateContext(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}
	for g, got := range results {
		if got != want.Total {
			t.Errorf("goroutine %d: total %d, serial reference %d", g, got, want.Total)
		}
	}
}
