package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// goldenSnapshot builds a fixed snapshot so sink output is deterministic.
func goldenSnapshot() *Snapshot {
	return &Snapshot{
		UptimeSeconds: 1.5,
		Counters: map[string]int64{
			"dse.candidates.total": 144,
			"sched.spills":         3,
		},
		Gauges: map[string]float64{
			"testcost.cache.hit_rate": 0.9375,
		},
		Spans: []SpanStats{
			{
				Name: "dse", Count: 1, TotalSeconds: 1.25, MinSeconds: 1.25, MaxSeconds: 1.25,
				Children: []SpanStats{
					{Name: "evaluate", Count: 144, TotalSeconds: 1.0, MinSeconds: 0.001, MaxSeconds: 0.1},
				},
			},
		},
	}
}

func TestJSONSinkGolden(t *testing.T) {
	var b strings.Builder
	if err := (JSONSink{W: &b}).Emit(goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `{
  "uptime_seconds": 1.5,
  "counters": {
    "dse.candidates.total": 144,
    "sched.spills": 3
  },
  "gauges": {
    "testcost.cache.hit_rate": 0.9375
  },
  "spans": [
    {
      "name": "dse",
      "count": 1,
      "total_seconds": 1.25,
      "min_seconds": 1.25,
      "max_seconds": 1.25,
      "children": [
        {
          "name": "evaluate",
          "count": 144,
          "total_seconds": 1,
          "min_seconds": 0.001,
          "max_seconds": 0.1
        }
      ]
    }
  ]
}
`
	if got != want {
		t.Fatalf("JSON sink output mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// And it must round-trip.
	var back Snapshot
	if err := json.Unmarshal([]byte(got), &back); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if back.Counters["dse.candidates.total"] != 144 {
		t.Fatalf("round-trip lost counters: %+v", back.Counters)
	}
}

func TestTextSinkGolden(t *testing.T) {
	var b strings.Builder
	if err := (TextSink{W: &b}).Emit(goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"uptime: 1.500s",
		"dse.candidates.total",
		"sched.spills",
		"testcost.cache.hit_rate",
		"dse",
		"evaluate",
		"n=144",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("text sink output missing %q:\n%s", want, got)
		}
	}
	// Counters must appear in lexical order.
	if strings.Index(got, "dse.candidates.total") > strings.Index(got, "sched.spills") {
		t.Fatalf("counters not in lexical order:\n%s", got)
	}
	// Child span is indented deeper than its parent.
	lines := strings.Split(got, "\n")
	var dseIndent, evalIndent int
	for _, l := range lines {
		trimmed := strings.TrimLeft(l, " ")
		if strings.HasPrefix(trimmed, "dse ") {
			dseIndent = len(l) - len(trimmed)
		}
		if strings.HasPrefix(trimmed, "evaluate ") {
			evalIndent = len(l) - len(trimmed)
		}
	}
	if evalIndent <= dseIndent {
		t.Fatalf("span tree not indented (dse=%d evaluate=%d):\n%s", dseIndent, evalIndent, got)
	}
}
