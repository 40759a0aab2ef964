package testcost

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tta"
)

// TestATPGDeadlineDegradesAnnotations runs an annotator with an
// impossible ATPG budget: every component annotation must fall back to
// the analytical bound, flagged degraded all the way up to ArchCost, and
// the bound must dominate what a converged annotator measures.
func TestATPGDeadlineDegradesAnnotations(t *testing.T) {
	reg := obs.NewRegistry()
	var events []obs.Event
	reg.Subscribe(func(ev obs.Event) { events = append(events, ev) })

	deg := NewAnnotator(16, 7)
	deg.ATPGDeadline = time.Nanosecond
	deg.Obs = reg
	arch := tta.Figure9()
	cost, err := deg.EvaluateContext(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}
	if !cost.Degraded {
		t.Fatal("ArchCost.Degraded not set under an exhausted budget")
	}
	nDeg := 0
	for _, c := range cost.Components {
		if c.Degraded {
			nDeg++
			if c.NP <= 0 {
				t.Errorf("%s: degraded np = %d, want a positive analytical bound", c.Name, c.NP)
			}
		}
	}
	if nDeg == 0 {
		t.Fatal("no component marked degraded")
	}
	if got := reg.Counter("testcost.degraded").Value(); got != int64(nDeg) {
		// Degradations are counted per distinct annotation (cache key),
		// and component rows can share keys — the counter must be at
		// least 1 and at most the row count.
		if got < 1 || got > int64(nDeg) {
			t.Fatalf("testcost.degraded = %d, want in [1, %d]", got, nDeg)
		}
	}
	found := false
	for _, ev := range events {
		if ev.Kind == "degraded" && strings.Contains(ev.Msg, "analytical bound") {
			found = true
		}
	}
	if !found {
		t.Fatal("no degradation event emitted")
	}

	// Pessimism: the degraded total must never undercut the measured one.
	ref, err := sharedAnn.EvaluateContext(context.Background(), arch)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Total < ref.Total {
		t.Fatalf("degraded total %d < measured total %d (the bound flattered a candidate)", cost.Total, ref.Total)
	}
}

// TestDegradedEntriesNotPersisted checks Save excludes degraded
// annotations: a warm start from that file must re-measure them.
func TestDegradedEntriesNotPersisted(t *testing.T) {
	deg := NewAnnotator(16, 7)
	deg.ATPGDeadline = time.Nanosecond
	if _, err := deg.EvaluateContext(context.Background(), tta.Figure9()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := deg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	deg.mu.Lock()
	degradedKeys := 0
	for _, an := range deg.cache {
		if an.degraded {
			degradedKeys++
		}
	}
	deg.mu.Unlock()
	if degradedKeys == 0 {
		t.Fatal("test expected degraded cache entries")
	}
	cold := NewAnnotator(16, 7)
	if err := cold.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	cold.mu.Lock()
	for k, an := range cold.cache {
		if an.degraded {
			t.Errorf("degraded entry %q survived a Save/Load round trip", k)
		}
		_ = an
		_ = k
	}
	n := len(cold.cache)
	cold.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d component entries persisted from a fully degraded annotator, want 0", n)
	}
}

// TestNoDeadlineMeansNoDegradation pins the compatibility contract: an
// unbudgeted annotator never marks anything degraded.
func TestNoDeadlineMeansNoDegradation(t *testing.T) {
	cost := evalFigure9(t)
	if cost.Degraded {
		t.Fatal("unbudgeted evaluation marked degraded")
	}
	for _, c := range cost.Components {
		if c.Degraded {
			t.Fatalf("%s degraded without a budget", c.Name)
		}
	}
}
