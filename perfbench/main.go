// Command perfbench is the repository's benchmark: it runs one workload
// of the exploration pipeline for a fixed time at a seed given on the
// command line, checks every report it produces against a reference
// computed by a different path, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run alternates untraced and traced iterations and reports the
// per-layer metrics, writing the recorded spans under .bench_build/traces.
//
// Usage (from the repository root; run.py builds and invokes this):
//
//	python3 perfbench/run.py --workload sweep_cold --seed 7 --seconds 20 --trace 0
//	python3 perfbench/run.py --smoke
//
// See README.md in this directory for the workloads and metric meanings.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order the smoke test runs them.
var workloadNames = []string{"sweep_cold", "search_screen", "daemon_warm", "shard4"}

// defaultSeeds are the seeds whose report digests are recorded in
// digests.json; any other seed is checked by the differential path only.
var defaultSeeds = map[string]int64{
	"sweep_cold":    7,  // ATPG seed
	"search_screen": 11, // GA seed
	"shard4":        11, // GA seed
	"daemon_warm":   1,  // job-mix seed
}

// heldOutSeed is the seed no tuning run uses; a later performance claim
// must also hold on it.
const heldOutSeed = 99991

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 0, "workload seed (0 = the workload's default seed)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measuring time of the run")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "self-test: run every workload once at a tiny size and check every metric prints")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, not %d\n", trace)
		return 2
	}
	if o.seed < 0 {
		fmt.Fprintf(stderr, "perfbench: -seed must be non-negative\n")
		return 2
	}
	// At most two threads of work, whatever the host offers, so runs on
	// different machines load the program the same way.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if o.smoke {
		return smoke(stdout, stderr)
	}
	if _, ok := defaultSeeds[o.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if o.seed == 0 {
		o.seed = defaultSeeds[o.workload]
	}
	res, err := runWorkload(context.Background(), o, fullSize)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res.print(stdout)
	return 0
}

// result is what one run reports.
type result struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	checks    []string // failed output checks, for the log
	metrics   map[string]float64
	table     string // per-layer table (traced runs)
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// print writes the human-readable metric list, then the JSON result line.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d (held-out seed %d)\n", r.workload, r.seed, heldOutSeed)
	for _, c := range r.checks {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", c)
	}
	if r.table != "" {
		fmt.Fprint(w, r.table)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-28s %14d %s\n", "attempted", r.attempted, "count")
	fmt.Fprintf(w, "%-28s %14.6g %s\n", "error_rate", errRate, "ratio")
	out := map[string]metric{}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out[name] = metric{Value: r.metrics[name], Unit: units[name]}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", name, r.metrics[name], units[name])
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, out})
	fmt.Fprintf(w, "%s\n", line)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer name every metric a run prints, with its unit;
// BENCHMARK.json lists the same names and the smoke test checks both agree.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"critical_path_s", "s"},
	{"candidates_per_s", "1/s"},
	{"genomes_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_p95_ms", "ms"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

var perLayer = [][2]string{
	{"dse.produce_s", "s"},
	{"dse.evaluate_busy_s", "s"},
	{"dse.worker_utilization", "ratio"},
	{"dse.sched_memo_hit_ratio", "ratio"},
	{"dse.sched_memo_lookups", "count"},
	{"dse.search.cheap_evals", "count"},
	{"dse.search.promoted", "count"},
	{"sched.busy_s", "s"},
	{"sched.runs", "count"},
	{"sched.ns_per_call", "ns"},
	{"sched.bytes_per_call", "B"},
	{"sched.allocs_per_call", "count"},
	{"sched.moves", "count"},
	{"sched.spills", "count"},
	{"testcost.cache_hit_ratio", "ratio"},
	{"testcost.cache_wait_s", "s"},
	{"testcost.bound_hit_ratio", "ratio"},
	{"testcost.bound_ns_per_call", "ns"},
	{"service.annotator_hit_ratio", "ratio"},
	{"atpg.busy_s", "s"},
	{"atpg.runs", "count"},
	{"atpg.run_max_s", "s"},
	{"atpg.run_sum_s", "s"},
	{"atpg.podem.backtracks", "count"},
	{"atpg.patterns.final", "count"},
	{"atpg.faultsim.lane_util", "ratio"},
	{"pareto.observe_ns", "ns"},
	{"pareto.front_size", "count"},
	{"checkpoint.flush_s", "s"},
	{"checkpoint.bytes", "B"},
	{"merge_s", "s"},
	{"shard.worker_max_s", "s"},
	{"service.submit_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.rejected", "count"},
	{"jobspec.prepare_us", "us"},
	{"report.encode_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead", "ratio"},
	{"error_rate", "ratio"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, l := range [][][2]string{endToEnd, perLayer} {
		for _, nu := range l {
			m[nu[0]] = nu[1]
		}
	}
	return m
}()

// smoke runs every workload once at a tiny size, untraced and traced, and
// checks that each prints exactly the metrics BENCHMARK.json names, with
// their units, and that every output check passes.
func smoke(stdout, stderr io.Writer) int {
	want, err := benchmarkMetrics("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: smoke: %v\n", err)
		return 1
	}
	bad := 0
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: wl, seed: defaultSeeds[wl], seconds: 0.05, trace: traced}
			res, err := runWorkload(context.Background(), o, smokeSize)
			if err != nil {
				fmt.Fprintf(stderr, "smoke %s trace=%v: %v\n", wl, traced, err)
				bad++
				continue
			}
			names := want[traced]
			problems := []string{}
			for name, unit := range names {
				if _, ok := res.metrics[name]; !ok {
					problems = append(problems, "missing "+name)
				} else if units[name] != unit {
					problems = append(problems, fmt.Sprintf("%s: unit %q, BENCHMARK.json says %q", name, units[name], unit))
				}
			}
			for name := range res.metrics {
				if _, ok := names[name]; !ok {
					problems = append(problems, "unlisted "+name)
				}
			}
			if res.failed > 0 {
				problems = append(problems, res.checks...)
			}
			sort.Strings(problems)
			status := "ok"
			if len(problems) > 0 {
				status = strings.Join(problems, "; ")
				bad++
			}
			fmt.Fprintf(stdout, "smoke %-14s trace=%d metrics=%d attempted=%d: %s\n", wl, b2i(traced), len(res.metrics), res.attempted, status)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "smoke FAILED (%d)\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "smoke ok")
	return 0
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares, keyed by traced (per_layer) or not (end_to_end).
func benchmarkMetrics(path string) (map[bool]map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		out[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		out[true][m.Name] = m.Unit
	}
	return out, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// deadline is the end of a run's measuring window.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
