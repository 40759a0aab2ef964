package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/testcost"
)

//go:embed digests.json
var digestsJSON []byte

// recordedDigests maps each workload to the sha256 of its report at the
// workload's default seed, as produced by the commit that recorded it.
var recordedDigests = func() map[string]string {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("perfbench: digests.json: " + err.Error())
	}
	return m
}()

// exploreWorkload is sweep_cold, search_screen or shard4: one exploration
// (or one sharded exploration plus its merge) per iteration, each with
// fresh annotators, so every iteration pays the cold gate-level work a
// CLI run without -cache pays.
//
// A run measures several input sets, each derived from the workload
// seed (the first is the seed itself), in turn; averaging over several
// GA trajectories or ATPG seeds keeps one unlucky draw from moving a run.
type exploreWorkload struct {
	name    string
	sz      size
	work    string // checkpoint directory
	shards  int    // 0 = unsharded
	genomes int    // genomes one iteration produces (0 = its candidates)
	sets    []inputSet

	replays []replayItem // candidates of the last traced iteration
}

// inputSet is one derived seed's job and its reference report digest.
type inputSet struct {
	seed int64
	spec jobspec.Spec
	cfg  dse.Config
	ref  string
}

// setSeedStride separates the derived seeds of one run: input set k of
// workload seed s uses seed s + k*setSeedStride.
const setSeedStride = 100003

// newExploreWorkload sets the workload up: per input set, the job
// description and config, and the reference report computed by a
// different path than the measured one — one worker instead of
// GOMAXPROCS for the unsharded workloads, the unsharded exploration for
// shard4. Each set's set-up time is one setup_s sample.
func newExploreWorkload(ctx context.Context, o options, sz size, work string, res *result) (*exploreWorkload, []time.Duration, error) {
	w := &exploreWorkload{name: o.workload, sz: sz, work: work}
	n := sz.sweepSets
	switch o.workload {
	case "search_screen":
		w.genomes, n = sz.searchPop*sz.searchGens, sz.searchSets
	case "shard4":
		w.genomes, n, w.shards = sz.shardPop*sz.shardGens, sz.shardSets, 4
	}
	var setups []time.Duration
	for k := 0; k < n; k++ {
		t0 := time.Now()
		set, err := w.newSet(ctx, o.seed+int64(k)*setSeedStride)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0))
		w.sets = append(w.sets, set)
	}
	checkRecorded(res, sz, w.name, o.seed, w.sets[0].ref)
	return w, setups, nil
}

func (w *exploreWorkload) newSet(ctx context.Context, seed int64) (inputSet, error) {
	set := inputSet{seed: seed}
	switch w.name {
	case "sweep_cold":
		set.spec.Seed = seed
		if w.sz.sweepBuses != nil {
			set.spec.Buses, set.spec.ALUs, set.spec.CMPs = w.sz.sweepBuses, []int{1}, []int{1}
		}
	case "search_screen":
		set.spec.Search = &jobspec.SearchSpec{Population: w.sz.searchPop, Generations: w.sz.searchGens, Eta: w.sz.searchEta, Seed: seed}
	case "shard4":
		set.spec.Search = &jobspec.SearchSpec{Population: w.sz.shardPop, Generations: w.sz.shardGens, Eta: w.sz.shardEta, Seed: seed}
	}
	cfg, _, err := dse.FromSpec(set.spec)
	if err != nil {
		return set, err
	}
	set.cfg = cfg
	ref := cfg
	ref.Annotator = testcost.NewAnnotator(cfg.Width, cfg.Seed)
	if w.shards == 0 {
		ref.Parallelism = 1
	}
	r, err := dse.ExploreContext(ctx, ref)
	if err != nil {
		return set, fmt.Errorf("reference exploration at seed %d: %w", seed, err)
	}
	set.ref, err = encodeReport(nil, 0, nil, ref, r, dse.SelectionSpec{})
	return set, err
}

// instrument gives a traced exploration its own registry and a timed
// live-front tracker on the event sink; untraced explorations get
// neither, like a CLI run without -metrics or -progress.
func instrument(cfg *dse.Config, tr *tracer, trace int, sink bool) *obs.Registry {
	if tr == nil {
		return nil
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	if sink {
		ft := dse.NewFrontTrackerObs(reg)
		cfg.EventSink = func(ev dse.Event) {
			t0 := time.Now()
			ft.Observe(ev)
			tr.add(trace, "pareto.observe_ns", float64(time.Since(t0).Nanoseconds()))
			tr.add(trace, "pareto.observe_calls", 1)
		}
	}
	return reg
}

// iterate runs one iteration on input set id mod len(sets) and checks
// its report against the set's reference; tr is nil when untraced.
func (w *exploreWorkload) iterate(ctx context.Context, tr *tracer, id int) (iterResult, error) {
	root := tr.start(id, nil, "iteration")
	defer root.end()
	set := &w.sets[id%len(w.sets)]
	if w.shards > 0 {
		return w.iterateSharded(ctx, tr, id, root, set)
	}
	cfg := set.cfg
	cfg.Annotator = testcost.NewAnnotator(cfg.Width, cfg.Seed)
	reg := instrument(&cfg, tr, id, true)
	sp := tr.start(id, root, "dse.ExploreContext")
	res, err := dse.ExploreContext(ctx, cfg)
	sp.end()
	tr.graft(sp, reg)
	if err != nil {
		return iterResult{}, err
	}
	if err := checkReport(tr, id, root, cfg, res, set); err != nil {
		return iterResult{}, err
	}
	if tr != nil {
		w.replays = replayItems(cfg, res)
	}
	n := len(res.Candidates)
	return iterResult{genomes: max(w.genomes, n), candidates: n}, nil
}

// checkReport encodes the iteration's report and compares its digest
// with the input set's reference.
func checkReport(tr *tracer, id int, root *span, cfg dse.Config, res *dse.Result, set *inputSet) error {
	digest, err := encodeReport(tr, id, root, cfg, res, dse.SelectionSpec{})
	if err != nil {
		return err
	}
	if digest != set.ref {
		return fmt.Errorf("seed %d: report sha256 %.16s…, reference %.16s…", set.seed, digest, set.ref)
	}
	return nil
}

// iterateSharded runs the shard workers one after another, as separate
// processes would (each with its own cold annotator and checkpoint
// file), then merges their checkpoints.
func (w *exploreWorkload) iterateSharded(ctx context.Context, tr *tracer, id int, root *span, set *inputSet) (iterResult, error) {
	dir := filepath.Join(w.work, fmt.Sprintf("it%d", id))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return iterResult{}, err
	}
	defer os.RemoveAll(dir)
	paths := make([]string, w.shards)
	var slowest time.Duration
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.ckpt", i))
		t0 := time.Now()
		if err := w.worker(ctx, tr, id, root, set.cfg, i, paths[i]); err != nil {
			return iterResult{}, fmt.Errorf("shard worker %d: %w", i, err)
		}
		slowest = max(slowest, time.Since(t0))
		if tr != nil {
			if st, err := os.Stat(paths[i]); err == nil {
				tr.add(id, "checkpoint.bytes", float64(st.Size()))
			}
		}
	}
	t0 := time.Now()
	cfg := set.cfg
	cfg.Annotator = testcost.NewAnnotator(cfg.Width, cfg.Seed)
	reg := instrument(&cfg, tr, id, true)
	sp := tr.start(id, root, "dse.MergeExploreContext")
	res, err := dse.MergeExploreContext(ctx, cfg, paths)
	sp.end()
	tr.graft(sp, reg)
	if err != nil {
		return iterResult{}, err
	}
	if err := checkReport(tr, id, root, cfg, res, set); err != nil {
		return iterResult{}, err
	}
	critical := slowest + time.Since(t0)
	if tr != nil {
		w.replays = replayItems(cfg, res)
	}
	return iterResult{critical: critical, genomes: w.genomes, candidates: len(res.Candidates)}, nil
}

// worker is one shard worker: open its checkpoint, evaluate its slice,
// and flush the checkpoint through the durable path.
func (w *exploreWorkload) worker(ctx context.Context, tr *tracer, id int, root *span, cfg dse.Config, index int, path string) error {
	ws := tr.start(id, root, "shard.worker")
	defer ws.end()
	cfg.Annotator = testcost.NewAnnotator(cfg.Width, cfg.Seed)
	cfg.Shard = &dse.ShardRange{Count: w.shards, Index: index}
	reg := instrument(&cfg, tr, id, false)
	sp := tr.start(id, ws, "dse.OpenCheckpoint")
	ck, err := dse.OpenCheckpoint(path, cfg)
	sp.end()
	if err != nil {
		return err
	}
	cfg.Checkpoint = ck
	sp = tr.start(id, ws, "dse.ExploreContext")
	_, err = dse.ExploreContext(ctx, cfg)
	sp.end()
	tr.graft(sp, reg)
	if err != nil {
		return err
	}
	sp = tr.start(id, ws, "checkpoint.FlushErr")
	err = ck.FlushErr()
	sp.end()
	return err
}

// encodeReport renders the report the CLI and the daemon serve and
// returns its sha256.
func encodeReport(tr *tracer, id int, root *span, cfg dse.Config, res *dse.Result, sel dse.SelectionSpec) (string, error) {
	study := core.NewStudyWithConfig(cfg)
	study.Result = res
	sp := tr.start(id, root, "core.JSONResult")
	jr, err := study.JSONResult(sel)
	sp.end()
	if err != nil {
		return "", err
	}
	sp = tr.start(id, root, "report.Encode")
	b, err := jr.Encode()
	sp.end()
	if err != nil {
		return "", err
	}
	sp = tr.start(id, root, "digest")
	sum := sha256.Sum256(b)
	sp.end()
	return hex.EncodeToString(sum[:]), nil
}

func (w *exploreWorkload) replay(ctx context.Context, tr *tracer, res *result) {
	var specs []jobspec.Spec
	for _, set := range w.sets {
		specs = append(specs, set.spec)
	}
	cfg := w.sets[0].cfg
	replayLayers(ctx, tr, res, w.replays, cfg.Width, cfg.Seed, w.sz.replayCap, specs)
}
