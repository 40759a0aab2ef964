package dse

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/testcost"
	"repro/internal/tta"
)

// shardTestConfig is a four-candidate space (buses {1,2} × two assign
// strategies) — enough candidates that every small shard topology has a
// non-trivial split. The shared annotator keeps repeated runs warm.
func shardTestConfig(t *testing.T, ann *testcost.Annotator) Config {
	t.Helper()
	cfg := smallConfig(t)
	cfg.Buses = []int{1, 2}
	cfg.Assigns = []tta.AssignStrategy{tta.SpreadFirst, tta.Packed}
	cfg.Annotator = ann
	return cfg
}

// sharedAnnotator builds a fully configured annotator safe to share
// across concurrent shard runs (fillDefaults only writes nil/zero
// fields, so pre-setting them makes the shared state read-only).
func sharedAnnotator() *testcost.Annotator {
	ann := testcost.NewAnnotator(8, 7)
	ann.ATPGWorkers = 1
	return ann
}

// runShard executes one worker of a count-way sharded exploration and
// returns its checkpoint path.
func runShard(t *testing.T, cfg Config, count, index int, dir string) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("shard%dof%d.ckpt", index, count))
	cfg.Shard = &ShardRange{Count: count, Index: index}
	ck, err := OpenCheckpoint(path, cfg)
	if err != nil {
		t.Fatalf("shard %d/%d checkpoint: %v", index, count, err)
	}
	cfg.Checkpoint = ck
	if _, err := ExploreContext(context.Background(), cfg); err != nil {
		t.Fatalf("shard %d/%d: %v", index, count, err)
	}
	return path
}

func TestShardBoundsTile(t *testing.T) {
	for _, total := range []int{0, 1, 4, 5, 100, 101} {
		for _, count := range []int{1, 2, 3, 7, 8, 200} {
			cur := 0
			for i := 0; i < count; i++ {
				lo, hi := shardBounds(total, count, i)
				if lo != cur {
					t.Fatalf("total %d count %d: shard %d starts at %d, want %d", total, count, i, lo, cur)
				}
				if size := hi - lo; size < total/count || size > total/count+1 {
					t.Fatalf("total %d count %d: shard %d has size %d (unbalanced)", total, count, i, size)
				}
				cur = hi
			}
			if cur != total {
				t.Fatalf("total %d count %d: shards end at %d", total, count, cur)
			}
		}
	}
}

// TestShardMergePermutationsMatchUnsharded is the determinism property
// at the heart of the tentpole: for any shard count — including more
// shards than candidates — and any order of the shard files, the merged
// result equals the unsharded run in every field, and its JSON encoding
// is byte-identical.
func TestShardMergePermutationsMatchUnsharded(t *testing.T) {
	ann := sharedAnnotator()
	ref, err := ExploreContext(context.Background(), shardTestConfig(t, ann))
	if err != nil {
		t.Fatal(err)
	}
	refBytes := resultBytes(t, ref)
	rng := rand.New(rand.NewSource(99))
	for _, count := range []int{1, 2, 3, 4, 7} {
		dir := t.TempDir()
		paths := make([]string, count)
		for i := 0; i < count; i++ {
			paths[i] = runShard(t, shardTestConfig(t, ann), count, i, dir)
		}
		for trial := 0; trial < 4; trial++ {
			perm := rng.Perm(count)
			shuffled := make([]string, count)
			for i, p := range perm {
				shuffled[i] = paths[p]
			}
			merged, err := MergeExploreContext(context.Background(), shardTestConfig(t, ann), shuffled)
			if err != nil {
				t.Fatalf("count %d perm %v: %v", count, perm, err)
			}
			requireSameResult(t, ref, merged)
			if got := resultBytes(t, merged); string(got) != string(refBytes) {
				t.Fatalf("count %d perm %v: merged result bytes differ from unsharded run", count, perm)
			}
		}
	}
}

// resultBytes flattens the result's exported, deterministic fields the
// way report encoders do — a byte-comparable identity.
func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	type flat struct {
		Names    []string
		Cands    []Candidate
		Feasible []int
		Front2D  []int
		Front3D  []int
		Selected int
	}
	f := flat{Feasible: res.Feasible, Front2D: res.Front2D, Front3D: res.Front3D, Selected: res.Selected}
	for i := range res.Candidates {
		c := res.Candidates[i] // copy; drop the pointer, keep the name
		f.Names = append(f.Names, c.Arch.Name)
		c.Arch = nil
		f.Cands = append(f.Cands, c)
	}
	b, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardMergeRejections covers the strict validation: duplicated and
// overlapping ranges, missing shards, unsharded checkpoints, and files
// from a different candidate space are all rejected with typed errors.
func TestShardMergeRejections(t *testing.T) {
	ann := sharedAnnotator()
	dir := t.TempDir()
	s0 := runShard(t, shardTestConfig(t, ann), 2, 0, dir)
	s1 := runShard(t, shardTestConfig(t, ann), 2, 1, dir)

	expectMergeErrorCfg := func(name string, cfg Config, paths []string, wantSub string) {
		t.Helper()
		_, err := MergeExploreContext(context.Background(), cfg, paths)
		if err == nil {
			t.Fatalf("%s: merge accepted %v", name, paths)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}
	expectMergeError := func(name string, paths []string, wantSub string) {
		t.Helper()
		expectMergeErrorCfg(name, shardTestConfig(t, ann), paths, wantSub)
	}

	expectMergeError("duplicate", []string{s0, s1, s0}, "overlaps")
	expectMergeError("missing", []string{s0}, "covered by no shard checkpoint")
	expectMergeError("none", nil, "at least one")

	// An unsharded checkpoint is not a merge input.
	plain := shardTestConfig(t, ann)
	plainPath := filepath.Join(dir, "plain.ckpt")
	ck, err := OpenCheckpoint(plainPath, plain)
	if err != nil {
		t.Fatal(err)
	}
	plain.Checkpoint = ck
	if _, err := ExploreContext(context.Background(), plain); err != nil {
		t.Fatal(err)
	}
	expectMergeError("unsharded-input", []string{plainPath, s1}, "no shard header")

	// A shard of a different candidate space (3 buses -> 6 candidates)
	// must not merge into this one (4 candidates).
	other := shardTestConfig(t, ann)
	other.Buses = []int{1, 2, 3}
	otherDir := t.TempDir()
	o0 := runShard(t, other, 2, 0, otherDir)
	expectMergeError("wrong-space", []string{o0, s1}, "candidate space")

	// A shard file written under another seed or another spec hash fails
	// the header check.
	rewrite := func(name string, edit func(*checkpointFile)) string {
		t.Helper()
		data, err := os.ReadFile(s0)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := decodeCheckpointData(data)
		if err != nil {
			t.Fatal(err)
		}
		edit(&f)
		out, err := encodeCheckpoint(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	otherSeed := rewrite("seed.ckpt", func(f *checkpointFile) { f.Seed++ })
	expectMergeError("other-seed", []string{otherSeed, s1}, "header mismatch")
	otherHash := rewrite("hash.ckpt", func(f *checkpointFile) { f.SpecHash = "0123456789abcdef" })
	hashed := shardTestConfig(t, ann)
	hashed.SpecHash = "fedcba9876543210"
	expectMergeErrorCfg("other-spec-hash", hashed, []string{otherHash, s1}, "header mismatch")

	// Typed error shape.
	_, err = MergeExploreContext(context.Background(), shardTestConfig(t, ann), []string{s0, s1, s0})
	var sme *ShardMergeError
	if !errors.As(err, &sme) {
		t.Fatalf("overlap error is %T, want *ShardMergeError", err)
	}

	// A shard config without a checkpoint cannot run.
	noCk := shardTestConfig(t, ann)
	noCk.Shard = &ShardRange{Count: 2, Index: 0}
	if _, err := ExploreContext(context.Background(), noCk); err == nil || !strings.Contains(err.Error(), "requires a Checkpoint") {
		t.Fatalf("shard run without checkpoint: err = %v", err)
	}

	// Merging with Shard set is a config error.
	bad := shardTestConfig(t, ann)
	bad.Shard = &ShardRange{Count: 2, Index: 0}
	if _, err := MergeExploreContext(context.Background(), bad, []string{s0, s1}); err == nil {
		t.Fatal("merge accepted a sharded config")
	}
}

// TestShardIncompleteThenResume kills one shard's completeness (an entry
// is deleted, standing in for a worker that crashed between flushes),
// checks the merge rejects the file with a resume hint, resumes that
// shard from its own checkpoint, and checks the re-merge is identical to
// the unsharded run.
func TestShardIncompleteThenResume(t *testing.T) {
	ann := sharedAnnotator()
	ref, err := ExploreContext(context.Background(), shardTestConfig(t, ann))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s0 := runShard(t, shardTestConfig(t, ann), 2, 0, dir)
	s1 := runShard(t, shardTestConfig(t, ann), 2, 1, dir)

	// Drop one entry from shard 0's file.
	data, err := os.ReadFile(s0)
	if err != nil {
		t.Fatal(err)
	}
	f, rec, err := decodeCheckpointData(data)
	if err != nil || rec.Torn {
		t.Fatalf("decode shard 0: %v (recovery %+v)", err, rec)
	}
	if len(f.Entries) != 2 {
		t.Fatalf("shard 0 holds %d entries, want 2", len(f.Entries))
	}
	for k := range f.Entries {
		delete(f.Entries, k)
		break
	}
	trunc, err := encodeCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s0, trunc, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = MergeExploreContext(context.Background(), shardTestConfig(t, ann), []string{s0, s1})
	if err == nil || !strings.Contains(err.Error(), "incomplete shard") {
		t.Fatalf("merge of incomplete shard: err = %v", err)
	}

	// Resume shard 0 from its own (truncated) checkpoint and merge again.
	resumed := runShard(t, shardTestConfig(t, ann), 2, 0, dir)
	if resumed != s0 {
		t.Fatalf("resume wrote %s, want %s", resumed, s0)
	}
	merged, err := MergeExploreContext(context.Background(), shardTestConfig(t, ann), []string{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, merged)
}

// TestShardCancelResumeByteIdentical kills a shard worker mid-flight
// (context cancellation after its first completed candidate), resumes it
// from its own checkpoint, and checks the merged result is identical to
// the unsharded run — the crash/resume contract.
func TestShardCancelResumeByteIdentical(t *testing.T) {
	ann := sharedAnnotator()
	ref, err := ExploreContext(context.Background(), shardTestConfig(t, ann))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s1 := runShard(t, shardTestConfig(t, ann), 2, 1, dir)

	// Shard 0, killed deterministically on its second candidate: with
	// Parallelism 1 the feed order is fixed, and the injection plan fires
	// on exactly the second evaluation — candidate 0 completes and is
	// checkpointed, candidate 1 dies.
	path := filepath.Join(dir, "shard0of2.ckpt")
	cfg := shardTestConfig(t, ann)
	cfg.Parallelism = 1
	cfg.Shard = &ShardRange{Count: 2, Index: 0}
	inj := faultinject.New(1)
	inj.Arm(faultinject.DSEEval, faultinject.Plan{Mode: faultinject.ModeError, Every: 2, Limit: 1})
	cfg.Inject = inj
	ck, err := OpenCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = ck
	_, err = ExploreContext(context.Background(), cfg)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("killed shard: err = %T (%v), want *PartialError", err, err)
	}
	if pe.Evaluated != 1 {
		t.Fatalf("killed shard evaluated %d candidates, want exactly 1", pe.Evaluated)
	}

	// The merge must refuse the partial shard...
	if _, err := MergeExploreContext(context.Background(), shardTestConfig(t, ann), []string{path, s1}); err == nil {
		t.Fatal("merge accepted a partial shard checkpoint")
	}

	// ...until the shard is resumed to completion.
	resumeCfg := shardTestConfig(t, ann)
	resumeCfg.Shard = &ShardRange{Count: 2, Index: 0}
	ck2, err := OpenCheckpoint(path, resumeCfg)
	if err != nil {
		t.Fatalf("reopening the shard checkpoint: %v", err)
	}
	if ck2.Len() == 0 {
		t.Fatal("killed shard persisted nothing; the resume test needs a completed prefix")
	}
	resumeCfg.Checkpoint = ck2
	if _, err := ExploreContext(context.Background(), resumeCfg); err != nil {
		t.Fatalf("resume: %v", err)
	}
	merged, err := MergeExploreContext(context.Background(), shardTestConfig(t, ann), []string{path, s1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, merged)
}

// TestShardWorkersConcurrent runs every worker of a 4-way topology
// concurrently against one shared annotator — the in-process equivalent
// of the daemon's fan-out, and the -race stress for the shard path.
func TestShardWorkersConcurrent(t *testing.T) {
	ann := sharedAnnotator()
	ref, err := ExploreContext(context.Background(), shardTestConfig(t, ann))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const count = 4
	paths := make([]string, count)
	var wg sync.WaitGroup
	errs := make([]error, count)
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := filepath.Join(dir, fmt.Sprintf("shard%d.ckpt", i))
			cfg := shardTestConfig(t, ann)
			cfg.Shard = &ShardRange{Count: count, Index: i}
			ck, err := OpenCheckpoint(path, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			cfg.Checkpoint = ck
			_, errs[i] = ExploreContext(context.Background(), cfg)
			paths[i] = path
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	merged, err := MergeExploreContext(context.Background(), shardTestConfig(t, ann), paths)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, merged)
}

// TestShardCheckpointTopologyMismatch pins the header checks: a shard
// checkpoint cannot be opened by an unsharded run or a different slot,
// and spec hashes bind only when both sides carry one.
func TestShardCheckpointTopologyMismatch(t *testing.T) {
	ann := sharedAnnotator()
	dir := t.TempDir()
	s0 := runShard(t, shardTestConfig(t, ann), 2, 0, dir)

	// Unsharded run, sharded file.
	plain := shardTestConfig(t, ann)
	_, err := OpenCheckpoint(s0, plain)
	var mm *CheckpointMismatchError
	if !errors.As(err, &mm) || mm.Field != "shard topology" {
		t.Fatalf("unsharded open of shard file: err = %v, want shard topology mismatch", err)
	}

	// Different slot, same file.
	slot1 := shardTestConfig(t, ann)
	slot1.Shard = &ShardRange{Count: 2, Index: 1}
	if _, err := OpenCheckpoint(s0, slot1); !errors.As(err, &mm) || mm.Field != "shard topology" {
		t.Fatalf("wrong-slot open: err = %v, want shard topology mismatch", err)
	}

	// Spec hash: both set and different -> mismatch; either empty -> ok.
	hashed := shardTestConfig(t, ann)
	hashed.SpecHash = "aaaaaaaaaaaaaaaa"
	hashedPath := filepath.Join(dir, "hashed.ckpt")
	ck, err := OpenCheckpoint(hashedPath, hashed)
	if err != nil {
		t.Fatal(err)
	}
	hashed.Checkpoint = ck
	if _, err := ExploreContext(context.Background(), hashed); err != nil {
		t.Fatal(err)
	}
	otherHash := shardTestConfig(t, ann)
	otherHash.SpecHash = "bbbbbbbbbbbbbbbb"
	if _, err := OpenCheckpoint(hashedPath, otherHash); !errors.As(err, &mm) || mm.Field != "spec hash" {
		t.Fatalf("different spec hash: err = %v, want spec hash mismatch", err)
	}
	noHash := shardTestConfig(t, ann)
	if ck, err := OpenCheckpoint(hashedPath, noHash); err != nil || ck.Len() == 0 {
		t.Fatalf("hashless open of hashed file: ck.Len()=%d err=%v, want clean resume", ck.Len(), err)
	}
}

// TestRunShardTornFinalWriteFails: every checkpoint write of shard 0 is
// torn, the final durable one included. RunShard must fail — a clean
// return would hand the merge a truncated shard — and the merge must
// refuse the file. Rerun without the fault, the worker resumes from the
// torn file's intact prefix and the merge is byte-identical to the
// unsharded run.
func TestRunShardTornFinalWriteFails(t *testing.T) {
	ann := sharedAnnotator()
	ref, err := ExploreContext(context.Background(), shardTestConfig(t, ann))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s0 := filepath.Join(dir, "s0.ckpt")
	s1 := runShard(t, shardTestConfig(t, ann), 2, 1, dir)

	inj := faultinject.New(1)
	inj.Arm(faultinject.Checkpoint, faultinject.Plan{Mode: faultinject.ModeTornWrite, Frac: 0.9})
	cfg := shardTestConfig(t, ann)
	cfg.Shard = &ShardRange{Count: 2, Index: 0}
	cfg.Inject = inj
	err = RunShard(context.Background(), cfg, s0, "", "")
	var torn *faultinject.TornWriteError
	if !errors.As(err, &torn) {
		t.Fatalf("RunShard behind a torn final write returned %v, want a *faultinject.TornWriteError", err)
	}
	inj.Disarm(faultinject.Checkpoint)
	if _, err := MergeExploreContext(context.Background(), shardTestConfig(t, ann), []string{s0, s1}); err == nil {
		t.Fatal("merge accepted a torn shard checkpoint")
	}

	cfg = shardTestConfig(t, ann)
	cfg.Shard = &ShardRange{Count: 2, Index: 0}
	restored := 0
	cfg.EventSink = func(ev Event) {
		if ev.Kind == EventRestored {
			restored++
		}
	}
	if err := RunShard(context.Background(), cfg, s0, "", ""); err != nil {
		t.Fatalf("rerun worker: %v", err)
	}
	if restored == 0 {
		t.Fatal("rerun worker restored nothing from the torn checkpoint's prefix")
	}
	merged, err := MergeExploreContext(context.Background(), shardTestConfig(t, ann), []string{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	if string(resultBytes(t, merged)) != string(resultBytes(t, ref)) {
		t.Fatal("merge after the rerun differs from the unsharded run")
	}
}

// TestRunShardColdRestartWarnings: a seed cache that does not load and
// a corrupt checkpoint each cost the worker only warmth, reported as
// warnings whose codes a supervisor counts; the worker then completes
// its shard and writes its own cache.
func TestRunShardColdRestartWarnings(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "s0.ckpt")
	seed := filepath.Join(dir, "seed.cache")
	for _, p := range []string{ckpt, seed} {
		if err := os.WriteFile(p, []byte("not a checkpoint or a cache"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := shardTestConfig(t, sharedAnnotator())
	cfg.Shard = &ShardRange{Count: 2, Index: 0}
	codes := map[string]int{}
	cfg.EventSink = func(ev Event) {
		if ev.Kind == EventWarning {
			codes[ev.Code]++
		}
	}
	out := ShardPath(seed, 0, 2)
	if err := RunShard(context.Background(), cfg, ckpt, seed, out); err != nil {
		t.Fatal(err)
	}
	for _, code := range []string{"dse.shard.seed_cache_errors", "durability.cold_restarts"} {
		if codes[code] != 1 {
			t.Errorf("%s warnings = %d, want 1 (all warnings: %v)", code, codes[code], codes)
		}
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("worker wrote no shard cache: %v", err)
	}
	if err := RunShard(context.Background(), cfg, ckpt, "", ""); err != nil || codes["durability.cold_restarts"] != 1 {
		t.Fatalf("rerun over the worker's own checkpoint: err %v, cold restarts %d, want nil and still 1",
			err, codes["durability.cold_restarts"])
	}
}
