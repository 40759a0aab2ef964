// Process-sharded exploration: the candidate list is a pure function of
// the Config (exhaustive enumeration, or the GA screen whose rng lives
// on the control thread and whose cheap tier is a pure function of the
// netlist), so N worker processes all hold the identical list, evaluate
// a deterministic contiguous slice of it, and persist the result as a
// shard checkpoint (Config.Shard + OpenCheckpoint). Enumeration is
// cheap and every process repeats it; the GA screen is not, so it runs
// once and its survivors are persisted as a candidate list next to the
// checkpoints (candlist.go), which later workers and the merge read.
// This file holds both halves around that list: RunShard is the one
// worker every front end runs (ttadse -shards, ttadsed -shard-worker),
// and MergeExploreContext rebuilds the list, validates that the shard
// files tile the candidate space exactly, and rebuilds fronts and
// selection in canonical index order — so the merged result is
// byte-identical to the unsharded run at any topology. ShardPath is the
// one name for the per-shard files the two halves exchange.
package dse

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/pareto"
	"repro/internal/tta"
)

// ShardRange names one worker's slot in a process-sharded exploration:
// the run evaluates candidates [Index*total/Count, (Index+1)*total/Count)
// of the deterministic candidate list.
type ShardRange struct {
	Count int // number of shards (>= 1)
	Index int // this worker's shard, in [0, Count)
}

// shardBounds returns the contiguous candidate range of one shard. The
// classic balanced split: ranges tile [0, total) exactly, sizes differ
// by at most one, and every process computes the same answer from the
// same three integers.
func shardBounds(total, count, index int) (lo, hi int) {
	return index * total / count, (index + 1) * total / count
}

// ShardPath names shard index's file of a count-way fan-out, derived
// from base: base.shard<index>of<count>. Workers write their caches
// under it; the merges union ShardPaths(base, count).
func ShardPath(base string, index, count int) string {
	return fmt.Sprintf("%s.shard%dof%d", base, index, count)
}

// ShardPaths names every shard's file of a count-way fan-out, in order.
func ShardPaths(base string, count int) []string {
	paths := make([]string, count)
	for i := range paths {
		paths[i] = ShardPath(base, i, count)
	}
	return paths
}

// RunShard runs one worker of a process-sharded exploration: the slot
// cfg.Shard of the candidate list, persisted to the checkpoint file the
// merge consumes. It warm-starts cfg.Annotator from seedCache (read
// only: peers share it), opens the checkpoint (resuming a rerun; a stale
// or corrupt file restarts cold), runs ExploreContext, writes the
// checkpoint a final time through FlushErr and saves the annotator to
// cacheOut. A failed final write fails the worker, so it is rerun and
// resumes from the intact prefix instead of handing the merge a torn
// shard. Load failures and cold restarts are warnings on cfg.EventSink,
// coded "dse.shard.seed_cache_errors" and "durability.cold_restarts" for
// a supervisor to count. The error is ExploreContext's (a *PartialError
// for a cut-short run), else the final write's or the cache save's.
func RunShard(ctx context.Context, cfg Config, checkpoint, seedCache, cacheOut string) error {
	if cfg.Shard == nil || checkpoint == "" {
		return errors.New("dse: a shard worker needs Config.Shard and a checkpoint file")
	}
	if err := cfg.fillDefaults(); err != nil {
		return err
	}
	warn := func(code, format string, args ...any) {
		if cfg.EventSink != nil {
			msg := fmt.Sprintf("shard %d/%d: ", cfg.Shard.Index, cfg.Shard.Count) + fmt.Sprintf(format, args...)
			cfg.EventSink(Event{Kind: EventWarning, Code: code, Msg: msg})
		}
	}
	if seedCache != "" {
		if err := cfg.Annotator.LoadFile(seedCache); err != nil && !errors.Is(err, fs.ErrNotExist) {
			warn("dse.shard.seed_cache_errors", "seed cache %s not loaded: %v", seedCache, err)
		}
	}
	ck, err := OpenCheckpoint(checkpoint, cfg)
	if ck == nil {
		return err
	}
	if err != nil { // a stale or corrupt file: OpenCheckpoint's fresh checkpoint replaces it
		warn("durability.cold_restarts", "checkpoint %s restarted cold: %v", checkpoint, err)
	}
	cfg.Checkpoint = ck

	_, err = ExploreContext(ctx, cfg)
	if ferr := ck.FlushErr(); ferr != nil && err == nil {
		err = ferr
	}
	if cacheOut != "" {
		if serr := cfg.Annotator.SaveFile(cacheOut); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// ShardMergeError reports a shard checkpoint file the merge rejected.
type ShardMergeError struct {
	Path   string
	Reason string
	Err    error
}

func (e *ShardMergeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("dse: shard checkpoint %s: %s: %v", e.Path, e.Reason, e.Err)
	}
	return fmt.Sprintf("dse: shard checkpoint %s: %s", e.Path, e.Reason)
}

func (e *ShardMergeError) Unwrap() error { return e.Err }

// MergeExploreContext merges the shard checkpoint files written by the
// workers of a sharded exploration of cfg into one complete Result,
// byte-identical (through core.Study.JSONResult, and in every exported
// field) to what an unsharded ExploreContext of the same cfg returns.
//
// The merge rebuilds the candidate list from cfg — a guided search
// reads the candidate list its workers left in the shard files'
// directories and screens only when none is valid — demands that the
// files' shard ranges tile it exactly (duplicated, overlapping or
// missing ranges are rejected, as is an incomplete shard — resume that
// worker from its own checkpoint first), reconstitutes every candidate,
// and rebuilds the fronts through pareto.StreamingFront in ascending
// candidate order. StreamingFront keeps duplicate coordinate vectors and
// returns IDs in ascending order — exactly the batch pareto.Front +
// sort convention of the unsharded path, which is what makes the fronts
// (and hence selection) identical.
//
// Each reconstituted candidate is announced on cfg.EventSink as an
// EventRestored (canonical index order), followed by the usual single
// EventDone, so live-front consumers see a merge exactly like a resumed
// run. cfg.Checkpoint is ignored; cfg.Shard must be nil.
func MergeExploreContext(ctx context.Context, cfg Config, paths []string) (*Result, error) {
	em := newEmitter(cfg.EventSink)
	nEvents := &atomic.Int64{}
	total := 0
	defer func() {
		em.emit(Event{Kind: EventDone, N: int(nEvents.Load()), Total: total})
	}()
	if cfg.Shard != nil {
		return nil, fmt.Errorf("dse: the merge runs unsharded (Config.Shard must be nil)")
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("dse: merge needs at least one shard checkpoint file")
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	reg := cfg.Obs
	defer em.bridgeObs(reg)()
	root := reg.StartSpan("dse")
	defer root.End()
	res := &Result{Config: cfg, Selected: -1}

	// The merge evaluates nothing; the candidate list its workers read
	// (or published) sits next to their shard files.
	var listDirs []string
	for _, p := range paths {
		if d := filepath.Dir(p); !slices.Contains(listDirs, d) {
			listDirs = append(listDirs, d)
		}
	}
	archs, err := produceArchs(ctx, &cfg, root, listDirs)
	if err != nil {
		return nil, err
	}
	total = len(archs)
	reg.Counter("dse.candidates.total").Add(int64(len(archs)))

	mergeSp := root.Child("merge")
	err = mergeShardFiles(&cfg, paths, archs, res, em, nEvents)
	mergeSp.End()
	if err != nil {
		return nil, err
	}
	reg.Counter("dse.shard.merged").Add(int64(len(paths)))

	paretoSp := root.Child("pareto")
	defer paretoSp.End()
	sf2 := pareto.NewStreamingFront(2)
	sf3 := pareto.NewStreamingFront(3)
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if !c.Feasible {
			continue
		}
		res.Feasible = append(res.Feasible, i)
		if _, _, err := sf2.Insert(pareto.Point{ID: i, Coords: []float64{c.Area, c.ExecTime}}); err != nil {
			return res, fmt.Errorf("dse: merge front insert (candidate %d): %w", i, err)
		}
		if _, _, err := sf3.Insert(pareto.Point{ID: i, Coords: c.Coords()}); err != nil {
			return res, fmt.Errorf("dse: merge front insert (candidate %d): %w", i, err)
		}
	}
	if len(res.Feasible) == 0 {
		return res, fmt.Errorf("dse: no feasible candidate in the explored space")
	}
	res.Front2D = sf2.IDs()
	res.Front3D = sf3.IDs()
	if err := res.Reselect(SelectionSpec{}); err != nil {
		return res, err
	}
	paretoSp.End()

	if cfg.VerifySelected && res.Selected >= 0 && ctx.Err() == nil {
		simSp := root.Child("sim")
		err := verifySelected(ctx, &cfg, res)
		simSp.End()
		if err != nil {
			return res, fmt.Errorf("dse: selected-candidate verification: %w", err)
		}
		res.Verified = true
	}
	return res, nil
}

// mergeShardFiles loads and validates the shard checkpoints and fills
// res.Candidates. Validation is strict: every file must carry this
// exploration's header and a shard header, the ranges must tile
// [0, len(archs)) with no gap, overlap or duplicate, every entry must
// name a candidate inside its file's range, and every index of every
// range must have an entry.
func mergeShardFiles(cfg *Config, paths []string, archs []*tta.Architecture, res *Result, em *emitter, nEvents *atomic.Int64) error {
	want := checkpointHeader(cfg)
	type shardInput struct {
		path  string
		shard checkpointShard
		file  checkpointFile
	}
	var inputs []shardInput
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return &ShardMergeError{Path: path, Reason: "read", Err: err}
		}
		f, rec, derr := decodeCheckpointData(data)
		if derr != nil {
			return &ShardMergeError{Path: path, Reason: "decode", Err: derr}
		}
		if rec.Torn {
			// A worker whose final flush succeeded leaves a fully valid
			// file; a torn one means the worker died mid-write. The merge
			// demands completeness, so surface the tear with a resume hint
			// instead of a confusing missing-entry error downstream.
			return &ShardMergeError{Path: path, Reason: fmt.Sprintf(
				"torn file (%s) — resume that worker from this checkpoint, then merge again", rec.Cause)}
		}
		if err := matchHeader(want, f); err != nil {
			return &ShardMergeError{Path: path, Reason: "header mismatch", Err: err}
		}
		if f.Shard == nil {
			return &ShardMergeError{Path: path, Reason: "not a shard checkpoint (no shard header)"}
		}
		s := *f.Shard
		if s.Total != len(archs) {
			return &ShardMergeError{Path: path, Reason: fmt.Sprintf(
				"covers a %d-candidate space, but this config produces %d candidates", s.Total, len(archs))}
		}
		if s.Lo < 0 || s.Hi < s.Lo || s.Hi > s.Total {
			return &ShardMergeError{Path: path, Reason: fmt.Sprintf("invalid range [%d,%d) of %d", s.Lo, s.Hi, s.Total)}
		}
		inputs = append(inputs, shardInput{path: path, shard: s, file: f})
	}

	// The ranges must tile the candidate space: sorted by (Lo, Hi), each
	// must begin exactly where the previous ended. A duplicated or
	// overlapping range trips the "overlaps" case; a gap the "not
	// covered" case. Zero-length ranges (more shards than candidates)
	// are legal and contribute nothing.
	sorted := append([]shardInput(nil), inputs...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i].shard, sorted[j].shard
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		return a.Hi < b.Hi
	})
	cur := 0
	for _, in := range sorted {
		switch {
		case in.shard.Lo < cur:
			return &ShardMergeError{Path: in.path, Reason: fmt.Sprintf(
				"range [%d,%d) overlaps another shard's", in.shard.Lo, in.shard.Hi)}
		case in.shard.Lo > cur:
			return fmt.Errorf("dse: shard merge: candidates [%d,%d) are covered by no shard checkpoint", cur, in.shard.Lo)
		}
		cur = in.shard.Hi
	}
	if cur != len(archs) {
		return fmt.Errorf("dse: shard merge: candidates [%d,%d) are covered by no shard checkpoint", cur, len(archs))
	}

	keyIndex := make(map[string]int, len(archs))
	for i, a := range archs {
		keyIndex[checkpointKey(a)] = i
	}
	res.Candidates = make([]Candidate, len(archs))
	filled := make([]bool, len(archs))
	for _, in := range inputs {
		for k, e := range in.file.Entries {
			if err := validCheckpointEntry(e); err != nil {
				return &ShardMergeError{Path: in.path, Reason: fmt.Sprintf("entry %q", k), Err: err}
			}
			idx, ok := keyIndex[k]
			if !ok {
				return &ShardMergeError{Path: in.path, Reason: fmt.Sprintf(
					"entry %q matches no candidate this config produces", k)}
			}
			if idx < in.shard.Lo || idx >= in.shard.Hi {
				return &ShardMergeError{Path: in.path, Reason: fmt.Sprintf(
					"entry for candidate %d lies outside the file's range [%d,%d)", idx, in.shard.Lo, in.shard.Hi)}
			}
			res.Candidates[idx] = e.candidate(archs[idx])
			filled[idx] = true
		}
	}
	for _, in := range inputs {
		for i := in.shard.Lo; i < in.shard.Hi; i++ {
			if !filled[i] {
				return &ShardMergeError{Path: in.path, Reason: fmt.Sprintf(
					"incomplete shard: candidate %d (%s) has no entry — resume that worker from this checkpoint, then merge again",
					i, archs[i].Name)}
			}
		}
	}

	// Announce the reconstituted candidates in canonical index order, so
	// a live-front consumer of the merge sees the same stream a resumed
	// unsharded run would emit.
	for i := range res.Candidates {
		c := &res.Candidates[i]
		em.emit(Event{
			Kind:      EventRestored,
			Msg:       candidateEventMsg(archs[i], c, nil),
			N:         i + 1,
			Total:     len(archs),
			Candidate: candidateUpdate(i, archs[i], c, nil),
		})
		nEvents.Add(1)
	}
	return nil
}
