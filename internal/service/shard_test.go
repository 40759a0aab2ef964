package service

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/jobspec"
	"repro/internal/obs"
)

// TestMain doubles as the shard worker helper process: the coordinator
// under test re-execs this test binary with TTADSED_SHARD_WORKER=1 in
// the environment (via Options.ShardWorkerCommand/ShardWorkerEnv), and
// the re-exec lands here before the testing framework parses any flags.
// TTADSED_SHARD_CRASH_ONCE names a directory whose marker file is
// claimed atomically by exactly one worker process across the whole
// fan-out — that worker simulates a crash by exiting before any work,
// which must cost the job nothing but a restart.
func TestMain(m *testing.M) {
	if os.Getenv("TTADSED_SHARD_WORKER") == "1" {
		if os.Getenv("TTADSED_SHARD_CRASH_ALWAYS") == "1" {
			os.Exit(3)
		}
		if dir := os.Getenv("TTADSED_SHARD_CRASH_ONCE"); dir != "" {
			marker := filepath.Join(dir, "crashed")
			if f, err := os.OpenFile(marker, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); err == nil {
				f.Close()
				os.Exit(3)
			}
		}
		os.Exit(ShardWorkerMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// shardOptions are the options of a daemon whose shard workers re-exec
// this test binary, with extraEnv appended to the worker environment.
func shardOptions(t *testing.T, extraEnv ...string) Options {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		MaxConcurrent:      2,
		ShardWorkerCommand: []string{exe},
		ShardWorkerEnv:     append([]string{"TTADSED_SHARD_WORKER=1"}, extraEnv...),
	}
}

func shardServer(t *testing.T, extraEnv ...string) *Server {
	t.Helper()
	return NewServer(shardOptions(t, extraEnv...))
}

// searchShardSpec is a small guided search: 16 screened genomes.
func searchShardSpec() jobspec.Spec {
	return jobspec.Spec{Search: &jobspec.SearchSpec{Population: 8, Generations: 2, Eta: 4, Seed: 5}}
}

// unshardedReport runs spec without a fan-out and returns its report.
func unshardedReport(t *testing.T, srv *Server, spec jobspec.Spec) []byte {
	t.Helper()
	ref, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, ref); st != StateDone {
		t.Fatalf("unsharded job ended %s: %s", st, ref.Status().Error)
	}
	if ref.Report() == nil {
		t.Fatal("unsharded job produced no report")
	}
	return ref.Report()
}

// TestShardedSearchJobScreensOnce: a sharded guided-search job screens
// once, in the coordinator; its four workers and the merge read the
// candidate list, and the report equals the unsharded job's.
func TestShardedSearchJobScreensOnce(t *testing.T) {
	srv := shardServer(t)
	spec := searchShardSpec()
	want := unshardedReport(t, srv, spec)

	spec.Shard = &jobspec.ShardSpec{Shards: 4}
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st != StateDone {
		t.Fatalf("sharded search job ended %s: %s", st, job.Status().Error)
	}
	if !bytes.Equal(job.Report(), want) {
		t.Fatal("sharded search report differs from the unsharded job's")
	}
	// Worker screen counters are relayed into the job registry, so these
	// sums cover the coordinator, all four workers and the merge.
	if n := job.reg.Counter("dse.search.cheap_evals").Value(); n != 8*2 {
		t.Errorf("dse.search.cheap_evals = %d, want %d (one screen)", n, 8*2)
	}
	if n := job.reg.Counter("dse.search.list_loaded").Value(); n != 5 {
		t.Errorf("dse.search.list_loaded = %d, want 5 (four workers and the merge)", n)
	}
}

// TestShardedJobMatchesUnsharded is the end-to-end determinism check at
// the daemon level: the same spec run unsharded and as a 2- and 3-shard
// process fan-out must produce byte-identical final reports, with
// progress and fronts aggregated across the worker processes.
func TestShardedJobMatchesUnsharded(t *testing.T) {
	srv := shardServer(t)
	spec := smallSpec()
	ref, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, ref); st != StateDone {
		t.Fatalf("unsharded job ended %s: %s", st, ref.Status().Error)
	}
	want := ref.Report()
	if want == nil {
		t.Fatal("unsharded job produced no report")
	}

	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := spec
			s.Shard = &jobspec.ShardSpec{Shards: shards}
			job, err := srv.Submit(s)
			if err != nil {
				t.Fatal(err)
			}
			if st := waitTerminal(t, job); st != StateDone {
				t.Fatalf("sharded job ended %s: %s", st, job.Status().Error)
			}
			if got := job.Report(); !bytes.Equal(got, want) {
				t.Fatalf("%d-shard report differs from the unsharded run (%d vs %d bytes)",
					shards, len(got), len(want))
			}
			// Worker progress aggregated across processes: every candidate
			// accounted once despite N event streams plus the merge replay.
			st := job.Status()
			if st.Evaluated != 12 || st.Total != 12 {
				t.Fatalf("progress %d/%d, want 12/12", st.Evaluated, st.Total)
			}
			if snap := job.Front(); len(snap.Front2D) == 0 || len(snap.Front3D) == 0 {
				t.Fatalf("sharded job has empty fronts: %+v", snap)
			}
			if got := job.reg.Counter("dse.shard.merged").Value(); got != int64(shards) {
				t.Fatalf("dse.shard.merged = %d, want %d", got, shards)
			}
		})
	}
}

// TestShardedJobWorkerCrashResumes kills one worker (it exits before
// any work the first time it is spawned) and checks the coordinator
// restarts it and the job still converges to the unsharded bytes.
func TestShardedJobWorkerCrashResumes(t *testing.T) {
	crashDir := t.TempDir()
	srv := shardServer(t, "TTADSED_SHARD_CRASH_ONCE="+crashDir)
	spec := smallSpec()

	ref, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, ref); st != StateDone {
		t.Fatalf("unsharded job ended %s: %s", st, ref.Status().Error)
	}
	// The unsharded path spawns no workers, so the crash marker is
	// still unclaimed when the fan-out starts.
	if _, err := os.Stat(filepath.Join(crashDir, "crashed")); err == nil {
		t.Fatal("crash marker claimed before any worker ran")
	}

	s := spec
	s.Shard = &jobspec.ShardSpec{Shards: 2}
	job, err := srv.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st != StateDone {
		t.Fatalf("sharded job ended %s: %s", st, job.Status().Error)
	}
	if !bytes.Equal(job.Report(), ref.Report()) {
		t.Fatal("report after a worker crash + restart differs from the unsharded run")
	}
	if got := job.reg.Counter("dse.shard.restarts").Value(); got != 1 {
		t.Fatalf("dse.shard.restarts = %d, want 1 (one simulated crash)", got)
	}
	if _, err := os.Stat(filepath.Join(crashDir, "crashed")); err != nil {
		t.Fatalf("no worker claimed the crash marker: %v", err)
	}
}

// TestShardedJobRestartsExhausted drives every restart into the same
// immediate crash (the marker is never released) and checks the job
// fails with the worker's error instead of hanging or reporting.
func TestShardedJobRestartsExhausted(t *testing.T) {
	sup := supervision
	sup.maxRestarts = 1
	lowerSupervision(t, sup)
	srv := shardServer(t, "TTADSED_SHARD_CRASH_ALWAYS=1")
	spec := smallSpec()
	spec.Shard = &jobspec.ShardSpec{Shards: 2}
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st != StateFailed {
		t.Fatalf("job with always-crashing workers ended %s, want failed", st)
	}
	if job.Status().Error == "" {
		t.Fatal("failed fan-out carries no error message")
	}
	if got := job.reg.Counter("dse.shard.restarts").Value(); got != 2 {
		t.Fatalf("dse.shard.restarts = %d, want 2 (2 workers x 1 restart)", got)
	}
}

// TestMetricsAggregateJobRegistries checks /v1/metrics folds the
// per-job pareto.stream.* and dse.shard.* metrics into the server
// snapshot (they live on each job's own registry).
func TestMetricsAggregateJobRegistries(t *testing.T) {
	srv := shardServer(t)
	spec := smallSpec()
	spec.Shard = &jobspec.ShardSpec{Shards: 2}
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st != StateDone {
		t.Fatalf("job ended %s: %s", st, job.Status().Error)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var snap obs.Snapshot
	getJSON(t, ts.URL+"/v1/metrics", 200, &snap)
	if snap.Counters["dse.shard.merged"] != 2 {
		t.Fatalf("aggregated dse.shard.merged = %d, want 2", snap.Counters["dse.shard.merged"])
	}
	if snap.Counters["pareto.stream.inserts"] == 0 {
		t.Fatal("pareto.stream.inserts missing from the aggregated metrics")
	}
	if _, ok := snap.Gauges["dse.shard.workers"]; !ok {
		t.Fatal("dse.shard.workers gauge missing from the aggregated metrics")
	}
}
