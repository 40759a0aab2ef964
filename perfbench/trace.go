package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer keeps the spans of a traced run in memory and writes them out
// when the run ends. Harness spans are recorded by the benchmark around
// each call into a layer's public function; the program's own span tree
// (dse.Config.Obs) is grafted under the harness span that made the call,
// as aggregate nodes (count and total, no start/end). Spans of one
// iteration or job share a trace id. A nil *tracer records nothing.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	nodes  []*node
	snaps  map[int][]*obs.Snapshot    // trace id -> program registries
	vals   map[int]map[string]float64 // trace id -> harness accumulations
	fixed  map[string]float64         // layer replays, once per run
	nextID int
}

// node is one span: a harness span (Start/End set) or an aggregate from
// the program's registry (Count/Total set).
type node struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root
	Trace  int     `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s,omitempty"` // seconds since the run began
	End    float64 `json:"end_s,omitempty"`
	Count  int64   `json:"count,omitempty"` // aggregate nodes only
	Total  float64 `json:"total_s,omitempty"`

	busy     float64
	children []*node
}

func newTracer() *tracer {
	return &tracer{
		t0:    time.Now(),
		snaps: map[int][]*obs.Snapshot{},
		vals:  map[int]map[string]float64{},
		fixed: map[string]float64{},
	}
}

// span is an open harness span.
type span struct {
	t *tracer
	n *node
}

// start opens a span named name in trace, under parent (nil for a root).
func (t *tracer) start(trace int, parent *span, name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	n := &node{ID: t.nextID, Trace: trace, Name: name, Start: time.Since(t.t0).Seconds()}
	if parent != nil {
		n.Parent = parent.n.ID
	}
	t.nodes = append(t.nodes, n)
	return &span{t: t, n: n}
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.n.End = time.Since(s.t.t0).Seconds()
	s.t.mu.Unlock()
}

// graft attaches a program registry's span tree under parent and keeps
// the snapshot for the per-layer counters of parent's trace.
func (t *tracer) graft(parent *span, reg *obs.Registry) {
	if t == nil || reg == nil {
		return
	}
	snap := reg.Snapshot()
	t.mu.Lock()
	defer t.mu.Unlock()
	trace := parent.n.Trace
	t.snaps[trace] = append(t.snaps[trace], snap)
	var add func(parentID int, ss []obs.SpanStats)
	add = func(parentID int, ss []obs.SpanStats) {
		for _, s := range ss {
			t.nextID++
			n := &node{ID: t.nextID, Parent: parentID, Trace: trace, Name: s.Name, Count: s.Count, Total: s.TotalSeconds}
			t.nodes = append(t.nodes, n)
			add(n.ID, s.Children)
		}
	}
	add(parent.n.ID, snap.Spans)
}

// add accumulates a harness-measured value for a trace.
func (t *tracer) add(trace int, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.vals[trace]
	if m == nil {
		m = map[string]float64{}
		t.vals[trace] = m
	}
	m[name] += v
}

// rootNames are the spans that stand for one iteration or job.
var rootNames = map[string]bool{"iteration": true, "job": true}

// finish computes the per-layer metrics, the layer table and the trace
// accounting, and writes the spans to .bench_build/traces.
func (t *tracer) finish(res *result, samples []sample, width int) {
	byID := map[int]*node{}
	for _, n := range t.nodes {
		byID[n.ID] = n
		n.busy = n.Total
		if n.Count == 0 {
			n.busy = n.End - n.Start
		}
	}
	var roots []*node
	for _, n := range t.nodes {
		if p, ok := byID[n.Parent]; ok {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}

	// Layer table: busy and self time per span name, plus coverage of
	// each iteration's capacity (wall time x threads it may use).
	type row struct {
		count      int64
		busy, self float64
	}
	rows := map[string]*row{}
	var capacity, covered float64
	var iterations int
	var walk func(n *node) float64
	walk = func(n *node) float64 {
		kids := 0.0
		sum := 0.0
		for _, c := range n.children {
			kids += c.busy
			sum += walk(c)
		}
		self := max(0, n.busy-kids)
		r := rows[n.Name]
		if r == nil {
			r = &row{}
			rows[n.Name] = r
		}
		r.count += max(n.Count, 1)
		r.busy += n.busy
		r.self += self
		return sum + self
	}
	for _, r := range roots {
		total := walk(r)
		if rootNames[r.Name] {
			kids := 0.0
			for _, c := range r.children {
				kids += c.busy
			}
			inner := total - max(0, r.busy-kids)
			w := float64(width)
			if r.Name == "job" {
				w = 1 // a job is one client's sequence of calls
			}
			capacity += r.busy * w
			covered += inner
			iterations++
		}
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]].busy > rows[names[j]].busy })
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer spans (busy = summed durations, self = busy minus child spans)\n")
	fmt.Fprintf(&b, "%-28s %10s %12s %12s %8s\n", "span", "count", "busy_s", "self_s", "self%")
	for _, n := range names {
		r := rows[n]
		share := 0.0
		if capacity > 0 && !rootNames[n] {
			share = 100 * r.self / capacity
		}
		fmt.Fprintf(&b, "%-28s %10d %12.6f %12.6f %7.2f%%\n", n, r.count, r.busy, r.self, share)
	}

	m := res.metrics
	t.layerMetrics(m)
	if capacity > 0 {
		m["trace.unattributed_share"] = 1 - covered/capacity
	}
	var plain, traced []float64
	var gcs, pause float64
	for _, s := range samples {
		if s.traced {
			traced = append(traced, s.wall.Seconds())
			continue
		}
		plain = append(plain, s.wall.Seconds())
		gcs += float64(s.gcs)
		pause += s.gcPause.Seconds()
	}
	if len(plain) > 0 && len(traced) > 0 {
		m["trace.overhead"] = quantile(traced, 0.5)/quantile(plain, 0.5) - 1
		m["runtime.gc_cycles"] = gcs / float64(len(plain))
		m["runtime.gc_pause_s"] = pause / float64(len(plain))
	}
	for k, v := range t.fixed {
		m[k] = v
	}
	if res.attempted > 0 {
		m["error_rate"] = float64(res.failed) / float64(res.attempted)
	}
	for _, nu := range perLayer {
		if _, ok := m[nu[0]]; !ok {
			m[nu[0]] = 0 // the layer is not on this workload's path
		}
	}
	verdict := "met"
	if m["trace.unattributed_share"] > 0.05 {
		verdict = "MISSED"
	}
	fmt.Fprintf(&b, "trace.unattributed_share %.4f of %.3f thread-s over %d traced iterations or jobs: the 5%% target is %s\n",
		m["trace.unattributed_share"], capacity, iterations, verdict)
	res.table = b.String()

	if err := t.write(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing the trace: %v\n", err)
	}
}

// write saves the spans and the per-layer metrics to
// .bench_build/traces/<workload>-seed<seed>.json.
func (t *tracer) write(res *result) error {
	dir, err := benchDir("traces")
	if err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Spans    []*node            `json:"spans"`
		Metrics  map[string]float64 `json:"metrics"`
	}{res.workload, res.seed, t.nodes, res.metrics})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", res.workload, res.seed)), data, 0o644)
}

// layerMetrics derives the per-layer metrics from the traced
// iterations: counts and times are means per trace that has the source,
// ratios are taken over the summed numerators and denominators.
func (t *tracer) layerMetrics(m map[string]float64) {
	var nSnap int
	c := map[string]float64{}   // counters summed over traces
	g := map[string][]float64{} // gauges
	sp := map[string]float64{}  // program span totals by name
	for _, snaps := range t.snaps {
		nSnap++
		for _, s := range snaps {
			for k, v := range s.Counters {
				c[k] += float64(v)
			}
			for k, v := range s.Gauges {
				g[k] = append(g[k], v)
			}
			var add func([]obs.SpanStats)
			add = func(ss []obs.SpanStats) {
				for _, x := range ss {
					sp[x.Name] += x.TotalSeconds
					add(x.Children)
				}
			}
			add(s.Spans)
		}
	}
	if nSnap > 0 {
		per := func(v float64) float64 { return v / float64(nSnap) }
		m["dse.produce_s"] = per(sp["search"] + sp["enumerate"])
		m["dse.evaluate_busy_s"] = per(sp["evaluate"])
		m["dse.worker_utilization"] = mean(g["dse.worker.utilization"])
		lookups := c["dse.sched.memo.hit"] + c["dse.sched.memo.miss"]
		m["dse.sched_memo_hit_ratio"] = ratio(c["dse.sched.memo.hit"], lookups)
		m["dse.sched_memo_lookups"] = per(lookups)
		m["dse.search.cheap_evals"] = per(c["dse.search.cheap_evals"])
		m["dse.search.promoted"] = per(c["dse.search.promoted"])
		m["sched.busy_s"] = per(sp["sched"])
		m["sched.runs"] = per(c["sched.runs"])
		m["sched.moves"] = per(c["sched.moves"])
		m["sched.spills"] = per(c["sched.spills"])
		m["testcost.cache_hit_ratio"] = ratio(c["testcost.cache.hit"], c["testcost.cache.hit"]+c["testcost.cache.miss"])
		m["testcost.cache_wait_s"] = per(c["testcost.cache.wait_ns"]) / 1e9
		m["atpg.busy_s"] = per(sp["atpg"])
		m["atpg.runs"] = per(c["atpg.runs"])
		m["atpg.podem.backtracks"] = per(c["atpg.podem.backtracks"])
		m["atpg.patterns.final"] = per(c["atpg.patterns.final"])
		m["atpg.faultsim.lane_util"] = mean(g["atpg.faultsim.lane_util"])
		m["pareto.front_size"] = mean(g["pareto.stream.front_size"])
	}

	// Harness spans and values, averaged over the traces that have them.
	spanSum := map[string]map[int]float64{}
	spanMax := map[string]map[int]float64{}
	for _, n := range t.nodes {
		if n.Count != 0 {
			continue
		}
		if spanSum[n.Name] == nil {
			spanSum[n.Name], spanMax[n.Name] = map[int]float64{}, map[int]float64{}
		}
		spanSum[n.Name][n.Trace] += n.busy
		spanMax[n.Name][n.Trace] = max(spanMax[n.Name][n.Trace], n.busy)
	}
	perTrace := func(by map[int]float64) float64 {
		var s []float64
		for _, v := range by {
			s = append(s, v)
		}
		return mean(s)
	}
	m["report.encode_ms"] = 1e3 * (perTrace(spanSum["core.JSONResult"]) + perTrace(spanSum["report.Encode"]))
	m["checkpoint.flush_s"] = perTrace(spanSum["checkpoint.FlushErr"])
	m["merge_s"] = perTrace(spanSum["dse.MergeExploreContext"])
	m["shard.worker_max_s"] = perTrace(spanMax["shard.worker"])
	m["service.submit_ms"] = 1e3 * perTrace(spanSum["service.submit"])
	m["service.result_ms"] = 1e3 * perTrace(spanSum["service.result"])

	vals := map[string]map[int]float64{}
	for trace, vs := range t.vals {
		for k, v := range vs {
			if vals[k] == nil {
				vals[k] = map[int]float64{}
			}
			vals[k][trace] = v
		}
	}
	m["checkpoint.bytes"] = perTrace(vals["checkpoint.bytes"])
	m["service.queue_ms"] = perTrace(vals["service.queue_ms"])
	var obsNS, obsCalls float64
	for _, v := range vals["pareto.observe_ns"] {
		obsNS += v
	}
	for _, v := range vals["pareto.observe_calls"] {
		obsCalls += v
	}
	m["pareto.observe_ns"] = ratio(obsNS, obsCalls)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
