package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/testcost"
)

// clients is the number of closed-loop clients, and so the most
// connections the benchmark opens to the daemon.
const clients = 2

// setupRepeats is how many times a run starts its daemon; setup_s is the
// median.
const setupRepeats = 5

// specWidth and specSeed are the width and ATPG seed the daemon gives a
// job spec that leaves them zero, as every job of the mix does.
const specWidth, specSeed = 16, 7

// jobPool generates daemon_warm's job mix from the seed: every kernel
// daemonDraws times per subset shape, with the subset values, norm and
// weights drawn from the seed. Width and ATPG seed stay at their defaults, so every
// job shares one annotator in the daemon's pool.
func jobPool(seed int64, sz size) []jobspec.Spec {
	rng := rand.New(rand.NewSource(seed))
	pick := func(n, k int) []int {
		out := []int{}
		for _, v := range rng.Perm(n)[:k] {
			out = append(out, v+1)
		}
		return out
	}
	var pool []jobspec.Spec
	for draw := 0; draw < sz.daemonDraws; draw++ {
		for _, kernel := range jobspec.Workloads {
			for _, sh := range sz.daemonShapes {
				pool = append(pool, jobspec.Spec{
					Workload: kernel,
					Buses:    pick(4, sh[0]),
					ALUs:     pick(3, sh[1]),
					CMPs:     pick(2, sh[2]),
					Norm:     jobspec.Norms[rng.Intn(len(jobspec.Norms))],
					WA:       float64(1 + rng.Intn(4)),
					WT:       float64(1 + rng.Intn(4)),
					WC:       float64(1 + rng.Intn(4)),
				})
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// daemon is an in-process ttadsed behind a loopback HTTP server.
type daemon struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	bodies [][]byte // the pool's POST bodies
}

func startDaemon(ctx context.Context, pool []jobspec.Spec, sz size) (*daemon, error) {
	d := &daemon{srv: service.NewServer(service.Options{})}
	d.ts = httptest.NewServer(d.srv.Handler())
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	for _, s := range pool {
		b, err := json.Marshal(s)
		if err != nil {
			d.close()
			return nil, err
		}
		d.bodies = append(d.bodies, b)
	}
	if sz.daemonWarmup {
		// One job over the paper's full default space annotates every
		// component the mix can use.
		if _, err := d.job(nil, 0, []byte(`{}`)); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return d, nil
}

func (d *daemon) close() {
	d.ts.Close()
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Drain(ctx) // every job has finished; nothing to persist
}

// jobSample is one job as its client saw it.
type jobSample struct {
	latency    time.Duration
	candidates int
	digest     string
	spec       int
	traced     bool
}

// job submits body, fetches /front while the job is live, follows
// /events to its end and fetches /result. Latency runs from the submit
// to the last byte of the result.
func (d *daemon) job(tr *tracer, id int, body []byte) (jobSample, error) {
	root := tr.start(id, nil, "job")
	defer root.end()
	t0 := time.Now()
	sp := tr.start(id, root, "service.submit")
	var st struct{ ID string }
	err := d.call("POST", "/v1/jobs", body, http.StatusAccepted, &st)
	sp.end()
	if err != nil {
		return jobSample{}, err
	}
	submitted := time.Now()
	sp = tr.start(id, root, "service.front")
	var front dse.FrontSnapshot
	err = d.call("GET", "/v1/jobs/"+st.ID+"/front", nil, http.StatusOK, &front)
	sp.end()
	if err != nil {
		return jobSample{}, err
	}
	sp = tr.start(id, root, "service.events")
	last, err := d.follow(st.ID, func() {
		tr.add(id, "service.queue_ms", float64(time.Since(submitted).Nanoseconds())/1e6)
	})
	sp.end()
	if err != nil {
		return jobSample{}, err
	}
	sp = tr.start(id, root, "service.result")
	var report []byte
	err = d.call("GET", "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &report)
	sp.end()
	if err != nil {
		return jobSample{}, err
	}
	sum := sha256.Sum256(report)
	return jobSample{latency: time.Since(t0), candidates: last.Total, digest: hex.EncodeToString(sum[:])}, nil
}

// call makes one request and decodes the response into out (*[]byte
// keeps the raw body); any other status than want is an error.
func (d *daemon) call(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, d.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}

// follow reads the job's NDJSON event stream to its end (the stream
// closes once the report is ready) and returns the "done" event.
func (d *daemon) follow(id string, first func()) (dse.Event, error) {
	resp, err := d.client.Get(d.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return dse.Event{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return dse.Event{}, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var done dse.Event
	n := 0
	for sc.Scan() {
		if n == 0 {
			first()
		}
		n++
		var ev dse.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return dse.Event{}, fmt.Errorf("events: %w", err)
		}
		if ev.Kind == dse.EventDone {
			done = ev
		}
	}
	if err := sc.Err(); err != nil {
		return dse.Event{}, err
	}
	if done.Kind != dse.EventDone {
		return dse.Event{}, fmt.Errorf("events: stream of %d events ended without \"done\"", n)
	}
	return done, nil
}

// counters reads the server's GET /v1/metrics counters.
func (d *daemon) counters() (map[string]int64, error) {
	var snap obs.Snapshot
	if err := d.call("GET", "/v1/metrics", nil, http.StatusOK, &snap); err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// runDaemon measures two closed-loop clients against a warm daemon.
func runDaemon(ctx context.Context, o options, sz size, res *result) error {
	pool := jobPool(o.seed, sz)
	var setups []time.Duration
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(ctx, pool, sz); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
	}
	defer d.close()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	c0, err := d.counters()
	if err != nil {
		return err
	}

	end := deadline(o.seconds)
	minJobs := int64(2 * len(pool))
	var next atomic.Int64
	var mu sync.Mutex
	var samples []jobSample
	before := takeProc()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := next.Add(1) - 1
				if j >= minJobs && !time.Now().Before(end) {
					return
				}
				// Whole passes over the pool alternate untraced and
				// traced, so both halves run the same job mix.
				traced := o.trace && (j/int64(len(pool)))%2 == 1
				var jtr *tracer
				if traced {
					jtr = tr
				}
				spec := int(j) % len(pool)
				s, err := d.job(jtr, int(j), d.bodies[spec])
				s.spec, s.traced = spec, traced
				mu.Lock()
				res.attempted++
				if err != nil {
					res.fail("job %d (%s): %v", j, d.bodies[spec], err)
				} else {
					samples = append(samples, s)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	after := takeProc()
	peak := maxRSS()
	c1, err := d.counters()
	if err != nil {
		return err
	}

	refs, err := daemonReferences(ctx, tr, pool)
	if err != nil {
		return err
	}
	for _, s := range samples {
		if s.digest != refs.digests[s.spec] {
			res.fail("job of spec %s: /result sha256 %.16s…, in-process reference %.16s…", d.bodies[s.spec], s.digest, refs.digests[s.spec])
		}
	}
	checkRecorded(res, sz, "daemon_warm", o.seed, refs.combined)

	var all []sample
	for _, s := range samples {
		all = append(all, sample{wall: s.latency, critical: s.latency, genomes: s.candidates, candidates: s.candidates, traced: s.traced})
	}
	if !o.trace {
		if n := len(all); n < 200 && sz.full {
			fmt.Fprintf(os.Stderr, "perfbench: %d jobs leave fewer than ten samples beyond p95\n", n)
		}
		endToEndMetrics(res, all, setups, peak, elapsed, after.cpu-before.cpu, after.alloc-before.alloc)
		return nil
	}

	hit := c1["testcost.cache.hit"] - c0["testcost.cache.hit"]
	miss := c1["testcost.cache.miss"] - c0["testcost.cache.miss"]
	tr.fixed["service.annotator_hit_ratio"] = ratio(float64(hit), float64(hit+miss))
	tr.fixed["service.rejected"] = float64(c1["service.jobs.rejected"] - c0["service.jobs.rejected"])
	jobs := float64(len(samples))
	tr.fixed["runtime.gc_cycles"] = float64(after.gcs-before.gcs) / jobs
	tr.fixed["runtime.gc_pause_s"] = (after.gcPause - before.gcPause).Seconds() / jobs
	replayLayers(ctx, tr, res, refs.replays, specWidth, specSeed, sz.replayCap, pool)
	tr.finish(res, all, 1)
	return nil
}

// references holds daemon_warm's in-process reference reports.
type references struct {
	digests  []string // per pool spec
	combined string   // sha256 over the pool's digests, in pool order
	replays  []replayItem
}

// daemonReferences computes each pool spec's report in process, through
// the same spec-to-config mapping and selection steps the daemon applies,
// with one warm annotator of its own. In a traced run each reference
// exploration is instrumented: it stands in for the daemon's job in the
// dse, sched, testcost and pareto rows.
func daemonReferences(ctx context.Context, tr *tracer, pool []jobspec.Spec) (*references, error) {
	ann := testcost.NewAnnotator(specWidth, specSeed)
	ann.ATPGWorkers = 1
	refs := &references{}
	all := sha256.New()
	for i, spec := range pool {
		trace := 1_000_000 + i
		root := tr.start(trace, nil, "reference")
		cfg, sel, err := dse.FromSpec(spec)
		if err != nil {
			return nil, err
		}
		cfg.Annotator = ann
		reg := instrument(&cfg, tr, trace, true)
		study := core.NewStudyWithConfig(cfg)
		sp := tr.start(trace, root, "dse.ExploreContext")
		err = study.ExploreContext(ctx)
		sp.end()
		tr.graft(sp, reg)
		if err == nil && sel != (dse.SelectionSpec{}) {
			err = study.Reselect(sel)
		}
		if err != nil {
			return nil, fmt.Errorf("reference for %+v: %w", spec, err)
		}
		digest, err := encodeReport(tr, trace, root, study.Config, study.Result, sel)
		root.end()
		if err != nil {
			return nil, err
		}
		refs.digests = append(refs.digests, digest)
		fmt.Fprintf(all, "%s\n", digest)
		if tr != nil {
			refs.replays = append(refs.replays, replayItems(study.Config, study.Result)...)
		}
	}
	refs.combined = hex.EncodeToString(all.Sum(nil))
	return refs, nil
}
