package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// size scales the workloads: fullSize is the benchmark, smokeSize the
// self-test.
type size struct {
	full bool // digests.json applies only at full size

	sweepBuses []int // nil = the paper's default space

	searchPop, searchGens, searchEta int
	shardPop, shardGens, shardEta    int

	daemonShapes [][3]int // bus/ALU/CMP subset sizes of one job per kernel
	daemonDraws  int      // jobs drawn per kernel and shape
	daemonWarmup bool     // warm the annotator pool with the full default space

	sweepSets, searchSets, shardSets int // input sets per run

	replayCap int // most items one layer replay visits
}

var fullSize = size{
	full:      true,
	searchPop: 1000, searchGens: 10, searchEta: 20,
	shardPop: 512, shardGens: 4, shardEta: 4,
	daemonShapes: [][3]int{{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {2, 1, 2}},
	daemonDraws:  3,
	daemonWarmup: true,
	sweepSets:    4, searchSets: 3, shardSets: 3,
	replayCap: 512,
}

var smokeSize = size{
	sweepBuses: []int{1, 2},
	searchPop:  24, searchGens: 2, searchEta: 4,
	shardPop: 16, shardGens: 2, shardEta: 4,
	daemonShapes: [][3]int{{1, 1, 1}},
	daemonDraws:  1,
	sweepSets:    2, searchSets: 2, shardSets: 2,
	replayCap: 16,
}

// runWorkload sets the workload up, measures it and checks its outputs.
func runWorkload(ctx context.Context, o options, sz size) (*result, error) {
	res := &result{workload: o.workload, seed: o.seed, metrics: map[string]float64{}}
	dir, err := benchDir("work")
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(dir, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	if o.workload == "daemon_warm" {
		return res, runDaemon(ctx, o, sz, res)
	}
	w, setups, err := newExploreWorkload(ctx, o, sz, work, res)
	if err != nil {
		return nil, err
	}
	return res, runSerial(ctx, o, w, setups, res)
}

// benchDir returns .bench_build/<name> under the working directory (the
// checkout root), creating it. Everything a run writes lives there.
func benchDir(name string) (string, error) {
	dir := filepath.Join(".bench_build", name)
	return dir, os.MkdirAll(dir, 0o755)
}

// iterResult is what one iteration of a serial workload produced.
type iterResult struct {
	critical   time.Duration // 0 = the iteration's wall time
	genomes    int           // genomes screened or candidates enumerated
	candidates int           // candidates fully evaluated
}

// sample is one measured iteration or job.
type sample struct {
	wall, critical      time.Duration
	genomes, candidates int
	cpu                 time.Duration
	alloc               uint64
	gcs                 uint32
	gcPause             time.Duration
	traced              bool
}

// runSerial measures iterations for o.seconds (at least minIters), then
// verifies and reports.
func runSerial(ctx context.Context, o options, w *exploreWorkload, setups []time.Duration, res *result) error {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// Every input set runs at least once (twice in a traced run: once
	// untraced, once traced).
	minIters := len(w.sets)
	if o.trace {
		minIters *= 2
	}
	end := deadline(o.seconds)
	var samples []sample
	for i := 0; i < minIters || time.Now().Before(end); i++ {
		// Whole rounds over the input sets alternate untraced and traced,
		// so both halves see every set equally often.
		traced := o.trace && (i/len(w.sets))%2 == 1
		var itr *tracer
		if traced {
			itr = tr
		}
		before := takeProc()
		t0 := time.Now()
		out, err := w.iterate(ctx, itr, i)
		wall := time.Since(t0)
		after := takeProc()
		res.attempted++
		if err != nil {
			res.fail("iteration %d: %v", i, err)
			continue
		}
		if out.critical == 0 {
			out.critical = wall
		}
		samples = append(samples, after.sub(before, sample{
			wall: wall, critical: out.critical, genomes: out.genomes, candidates: out.candidates, traced: traced,
		}))
	}
	peak := maxRSS()
	if !o.trace {
		var elapsed, cpu time.Duration
		var alloc uint64
		for _, s := range samples {
			elapsed, cpu, alloc = elapsed+s.wall, cpu+s.cpu, alloc+s.alloc
		}
		endToEndMetrics(res, samples, setups, peak, elapsed, cpu, alloc)
		return nil
	}
	w.replay(ctx, tr, res)
	tr.finish(res, samples, runtime.GOMAXPROCS(0))
	return nil
}

// proc is a snapshot of process counters.
type proc struct {
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	gcPause time.Duration
}

func takeProc() proc {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return proc{cpu: cpuTime(), alloc: ms.TotalAlloc, gcs: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs)}
}

// sub fills s's process deltas from before (p0) to after (p).
func (p proc) sub(p0 proc, s sample) sample {
	s.cpu = p.cpu - p0.cpu
	s.alloc = p.alloc - p0.alloc
	s.gcs = p.gcs - p0.gcs
	s.gcPause = p.gcPause - p0.gcPause
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS is the process's peak resident set in bytes (Linux reports KiB).
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024
}

// endToEndMetrics reports the untraced samples. elapsed, cpu and alloc
// are the time, CPU time and heap bytes the samples took together.
func endToEndMetrics(res *result, samples []sample, setups []time.Duration, peakRSS float64, elapsed, cpu time.Duration, alloc uint64) {
	var walls, crits, su []float64
	var genomes, cands int
	for _, s := range samples {
		if s.traced {
			continue
		}
		walls = append(walls, s.wall.Seconds())
		crits = append(crits, s.critical.Seconds())
		genomes += s.genomes
		cands += s.candidates
	}
	for _, d := range setups {
		su = append(su, d.Seconds())
	}
	n := float64(len(walls))
	m := res.metrics
	m["setup_s"] = quantile(su, 0.5)
	m["wall_s"] = quantile(walls, 0.5)
	m["critical_path_s"] = quantile(crits, 0.5)
	m["candidates_per_s"] = float64(cands) / elapsed.Seconds()
	m["genomes_per_s"] = float64(genomes) / elapsed.Seconds()
	m["jobs_per_s"] = n / elapsed.Seconds()
	m["job_latency_p50_ms"] = quantile(walls, 0.5) * 1e3
	m["job_latency_p95_ms"] = quantile(walls, 0.95) * 1e3
	m["cpu_s"] = cpu.Seconds() / n
	m["alloc_mb"] = float64(alloc) / n / 1e6
	m["peak_rss_mb"] = peakRSS / 1e6
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// checkRecorded compares a default-seed reference digest with digests.json.
func checkRecorded(res *result, sz size, workload string, seed int64, got string) {
	if !sz.full || seed != defaultSeeds[workload] {
		return
	}
	want, ok := recordedDigests[workload]
	if !ok {
		res.fail("%s: no digest recorded in digests.json (this run's report: %s)", workload, got)
		return
	}
	if got != want {
		res.fail("%s seed %d: report sha256 %s drifted from the recorded %s", workload, seed, got, want)
	}
}
