package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/jobspec"
	"repro/internal/service"
)

// TestMain doubles as the CLI under test: re-execing this test binary
// with TTADSE_RUN_MAIN=1 runs the real main() over the re-exec's argv,
// so the shard/merge tests drive ttadse as separate OS processes
// without building the command. With TTADSED_SHARD_WORKER=1 the re-exec
// is the daemon's shard worker (ttadsed -shard-worker) instead.
func TestMain(m *testing.M) {
	if os.Getenv("TTADSE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	if os.Getenv("TTADSED_SHARD_WORKER") == "1" {
		os.Exit(service.ShardWorkerMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// runCLI execs one ttadse invocation, returning stdout, stderr and the
// exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	return runExe(t, []string{"TTADSE_RUN_MAIN=1"}, args...)
}

// runExe re-execs this test binary with env added to its environment.
func runExe(t *testing.T, env []string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), env...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatalf("exec %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestShardMergeCLIByteIdentical is the CLI half of the determinism
// contract: N worker invocations plus one -merge must print exactly the
// unsharded run's bytes, at every shard count and with the core budget
// varying per process (GOMAXPROCS 1 vs 8 — results are identical at any
// parallelism, so shards may disagree on it), with the per-shard
// annotation caches unioned back into the base file.
func TestShardMergeCLIByteIdentical(t *testing.T) {
	base := []string{"-buses", "1", "-alus", "1", "-cmps", "1"}
	ref, errText, code := runCLI(t, base...)
	if code != 0 {
		t.Fatalf("unsharded run exited %d: %s", code, errText)
	}
	want := sha256.Sum256([]byte(ref))

	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			cache := filepath.Join(dir, "anno.cache")
			var paths []string
			for i := 0; i < n; i++ {
				ckpt := filepath.Join(dir, fmt.Sprintf("s%dof%d.ckpt", i, n))
				paths = append(paths, ckpt)
				procs := "GOMAXPROCS=1"
				if i%2 == 0 {
					procs = "GOMAXPROCS=8"
				}
				args := append(append([]string(nil), base...),
					"-shards", strconv.Itoa(n), "-shard-index", strconv.Itoa(i),
					"-checkpoint", ckpt, "-cache", cache)
				if _, errText, code := runExe(t, []string{"TTADSE_RUN_MAIN=1", procs}, args...); code != 0 {
					t.Fatalf("shard %d/%d exited %d: %s", i, n, code, errText)
				}
				shardCache := fmt.Sprintf("%s.shard%dof%d", cache, i, n)
				if _, err := os.Stat(shardCache); err != nil {
					t.Fatalf("worker %d wrote no per-shard cache: %v", i, err)
				}
			}
			out, errText, code := runExe(t, []string{"TTADSE_RUN_MAIN=1", "GOMAXPROCS=8"}, append(append([]string(nil), base...),
				"-merge", strings.Join(paths, ","), "-cache", cache)...)
			if code != 0 {
				t.Fatalf("merge exited %d: %s", code, errText)
			}
			if got := sha256.Sum256([]byte(out)); got != want {
				t.Fatalf("%d-shard merged report differs from the unsharded run", n)
			}
			if _, err := os.Stat(cache); err != nil {
				t.Fatalf("merge left no base cache: %v", err)
			}
		})
	}
}

// TestShardWorkerResumeAfterKill kills worker 0 mid-flight (via an
// immediate -timeout), checks the merge refuses the incomplete fan-out,
// resumes the worker, and checks the merged bytes still match the
// unsharded run exactly.
func TestShardWorkerResumeAfterKill(t *testing.T) {
	base := []string{"-buses", "1", "-alus", "1", "-cmps", "1"}
	ref, errText, code := runCLI(t, base...)
	if code != 0 {
		t.Fatalf("unsharded run exited %d: %s", code, errText)
	}
	dir := t.TempDir()
	ckpt0 := filepath.Join(dir, "s0of2.ckpt")
	ckpt1 := filepath.Join(dir, "s1of2.ckpt")
	worker := func(index int, ckpt string, extra ...string) (string, int) {
		args := append(append([]string(nil), base...),
			"-shards", "2", "-shard-index", strconv.Itoa(index), "-checkpoint", ckpt)
		_, errText, code := runCLI(t, append(args, extra...)...)
		return errText, code
	}
	if errText, code := worker(1, ckpt1); code != 0 {
		t.Fatalf("shard 1 exited %d: %s", code, errText)
	}
	if errText, code := worker(0, ckpt0, "-timeout", "1ns"); code != 2 {
		t.Fatalf("killed shard 0 exited %d, want 2 (timeout): %s", code, errText)
	}
	mergeArgs := append(append([]string(nil), base...), "-merge", ckpt0+","+ckpt1)
	if _, errText, code := runCLI(t, mergeArgs...); code == 0 {
		t.Fatalf("merge accepted an incomplete fan-out: %s", errText)
	}
	if errText, code := worker(0, ckpt0); code != 0 {
		t.Fatalf("resumed shard 0 exited %d: %s", code, errText)
	}
	out, errText, code := runCLI(t, mergeArgs...)
	if code != 0 {
		t.Fatalf("merge after resume exited %d: %s", code, errText)
	}
	if out != ref {
		t.Fatal("merged report after kill + resume differs from the unsharded run")
	}
}

// TestMergeSkipsStrayShardCacheFiles: a crashed save's temp file and an
// earlier quarantine share the <cache>.shard prefix. The merge must
// union exactly the shard caches — every one of them — and leave the
// strays alone instead of aborting on them.
func TestMergeSkipsStrayShardCacheFiles(t *testing.T) {
	base := []string{"-buses", "1,2", "-alus", "1", "-cmps", "1"}
	dir := t.TempDir()
	cache := filepath.Join(dir, "c.cache")
	var paths []string
	for i := 0; i < 2; i++ {
		ckpt := filepath.Join(dir, fmt.Sprintf("s%d.ckpt", i))
		paths = append(paths, ckpt)
		args := append(append([]string(nil), base...),
			"-shards", "2", "-shard-index", strconv.Itoa(i), "-checkpoint", ckpt, "-cache", cache)
		if _, errText, code := runCLI(t, args...); code != 0 {
			t.Fatalf("shard %d exited %d: %s", i, code, errText)
		}
	}
	shard0, err := os.ReadFile(cache + ".shard0of2")
	if err != nil {
		t.Fatal(err)
	}
	strays := map[string][]byte{
		cache + ".shard0of2.tmp4242": shard0[:len(shard0)/3],
		cache + ".shard1of2.corrupt": []byte("quarantined earlier"),
	}
	for path, data := range strays {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	caches := dse.ShardPaths(cache, len(paths))
	if want := []string{cache + ".shard0of2", cache + ".shard1of2"}; strings.Join(caches, ",") != strings.Join(want, ",") {
		t.Fatalf("dse.ShardPaths = %v, want %v", caches, want)
	}
	for _, c := range caches {
		if _, err := os.Stat(c); err != nil {
			t.Fatalf("worker wrote no shard cache under the merge's name: %v", err)
		}
	}
	_, errText, code := runCLI(t, append(append([]string(nil), base...),
		"-merge", strings.Join(paths, ","), "-cache", cache)...)
	if code != 0 || strings.Contains(errText, "not merged") {
		t.Fatalf("merge exited %d: %s", code, errText)
	}
	for path, data := range strays {
		if got, err := os.ReadFile(path); err != nil || string(got) != string(data) {
			t.Errorf("stray %s was touched by the merge: %v", filepath.Base(path), err)
		}
	}
	if matches, _ := filepath.Glob(cache + "*.corrupt.corrupt"); len(matches) > 0 {
		t.Errorf("the merge quarantined a stray again: %v", matches)
	}
}

// TestShardFrontEndsWriteSameFiles: the two shard front ends are one
// worker. Shard 0 of a 2-way fan-out runs as ttadse -shards, shard 1 as
// ttadsed -shard-worker; ttadse -merge must print the unsharded report
// and union both shard caches, so a rerun from the merged cache
// annotates nothing.
func TestShardFrontEndsWriteSameFiles(t *testing.T) {
	base := []string{"-buses", "1", "-alus", "1", "-cmps", "1"}
	ref, errText, code := runCLI(t, base...)
	if code != 0 {
		t.Fatalf("unsharded run exited %d: %s", code, errText)
	}
	dir := t.TempDir()
	cache := filepath.Join(dir, "anno.cache")
	ckpts := []string{filepath.Join(dir, "s0.ckpt"), filepath.Join(dir, "s1.ckpt")}

	args := append(append([]string(nil), base...),
		"-shards", "2", "-shard-index", "0", "-checkpoint", ckpts[0], "-cache", cache)
	if _, errText, code := runCLI(t, args...); code != 0 {
		t.Fatalf("ttadse shard 0 exited %d: %s", code, errText)
	}

	// The spec the CLI flags above describe, defaults spelled out as
	// the CLI spells them: the merge checks the spec hash of every file.
	spec := jobspec.Spec{
		Workload: "crypt", Norm: "euclid", WA: 1, WT: 1, WC: 1, DegradedPolicy: "allow",
		Buses: []int{1}, ALUs: []int{1}, CMPs: []int{1},
	}
	specPath := filepath.Join(dir, "spec.json")
	raw, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(specPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, errText, code := runExe(t, []string{"TTADSED_SHARD_WORKER=1"}, "-spec", specPath,
		"-shards", "2", "-shard-index", "1", "-checkpoint", ckpts[1],
		"-cache", cache, "-cache-out", dse.ShardPath(cache, 1, 2)); code != 0 {
		t.Fatalf("ttadsed shard worker 1 exited %d: %s", code, errText)
	}

	out, errText, code := runCLI(t, append(append([]string(nil), base...),
		"-merge", strings.Join(ckpts, ","), "-cache", cache)...)
	if code != 0 || strings.Contains(errText, "not merged") {
		t.Fatalf("merge exited %d: %s", code, errText)
	}
	if out != ref {
		t.Fatal("merged report of the two front ends differs from the unsharded run")
	}
	metrics, errText, code := runCLI(t, append(append([]string(nil), base...),
		"-cache", cache, "-metrics", "-")...)
	if code != 0 {
		t.Fatalf("warm rerun exited %d: %s", code, errText)
	}
	var snap struct{ Counters map[string]int64 }
	if err := json.Unmarshal([]byte(metrics), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["testcost.cache.loaded"] == 0 || snap.Counters["testcost.cache.miss"] != 0 {
		t.Fatalf("rerun from the merged cache: loaded %d, missed %d annotations; want some loaded and none missed",
			snap.Counters["testcost.cache.loaded"], snap.Counters["testcost.cache.miss"])
	}
}

// TestATPGDeadlineBindsCheckpoint: -atpg-deadline is part of the
// exploration's identity. A checkpoint left by a budgeted run holds
// degraded evaluations, so an unbudgeted run must call it stale and
// print exactly what a clean run prints.
func TestATPGDeadlineBindsCheckpoint(t *testing.T) {
	base := []string{"-buses", "1", "-alus", "1", "-cmps", "1"}
	ref, errText, code := runCLI(t, base...)
	if code != 0 {
		t.Fatalf("clean run exited %d: %s", code, errText)
	}
	if strings.Contains(ref, "degraded") {
		t.Fatal("clean run reports degraded rows")
	}
	ckpt := filepath.Join(t.TempDir(), "c.ckpt")
	budgeted, errText, code := runCLI(t, append(append([]string(nil), base...),
		"-atpg-deadline", "1ns", "-checkpoint", ckpt)...)
	if code != 0 {
		t.Fatalf("budgeted run exited %d: %s", code, errText)
	}
	if !strings.Contains(budgeted, "degraded") {
		t.Fatal("budgeted run reports no degraded rows; the test exercises nothing")
	}
	out, errText, code := runCLI(t, append(append([]string(nil), base...), "-checkpoint", ckpt)...)
	if code != 0 {
		t.Fatalf("unbudgeted run exited %d: %s", code, errText)
	}
	if !strings.Contains(errText, "stale checkpoint") || strings.Contains(errText, "resuming") {
		t.Fatalf("unbudgeted run did not reject the budgeted checkpoint as stale: %s", errText)
	}
	if out != ref {
		t.Fatal("unbudgeted run after a budgeted one differs from a clean run")
	}
}

// TestShardedSearchCLI: guided-search workers started one after another
// share one candidate list next to their checkpoints — the first
// screens, the rest and the merge read it — and the merged report is
// the unsharded run's.
func TestShardedSearchCLI(t *testing.T) {
	base := []string{"-search", "-search-pop", "8", "-search-gens", "2"}
	ref, errText, code := runCLI(t, base...)
	if code != 0 {
		t.Fatalf("unsharded search exited %d: %s", code, errText)
	}
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 3; i++ {
		ckpt := filepath.Join(dir, fmt.Sprintf("s%d.ckpt", i))
		paths = append(paths, ckpt)
		args := append(append([]string(nil), base...),
			"-shards", "3", "-shard-index", strconv.Itoa(i), "-checkpoint", ckpt)
		if _, errText, code := runCLI(t, args...); code != 0 {
			t.Fatalf("shard %d exited %d: %s", i, code, errText)
		}
	}
	if lists, _ := filepath.Glob(filepath.Join(dir, "candidates-*.list")); len(lists) != 1 {
		t.Fatalf("candidate lists next to the checkpoints: %v, want exactly one", lists)
	}
	out, errText, code := runCLI(t, append(append([]string(nil), base...), "-merge", strings.Join(paths, ","))...)
	if code != 0 {
		t.Fatalf("merge exited %d: %s", code, errText)
	}
	if out != ref {
		t.Fatal("merged search report differs from the unsharded run")
	}
}

// TestShardFlagValidation pins the CLI-boundary rejections.
func TestShardFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-shards", "2"}, // no -checkpoint
		{"-shards", "2", "-shard-index", "2", "-checkpoint", "x"}, // index out of range
		{"-shards", "2", "-checkpoint", "x", "-merge", "a"},       // worker and merge at once
		{"-merge", "a.ckpt", "-checkpoint", "x"},                  // merge ignores -checkpoint
	}
	for _, args := range cases {
		if _, errText, code := runCLI(t, args...); code == 0 {
			t.Fatalf("ttadse %v succeeded, want a flag error (%s)", args, errText)
		}
	}
}

func TestParseIntList(t *testing.T) {
	got, err := parseIntList("buses", "1, 2,4")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("parseIntList = %v", got)
	}
	for _, raw := range []string{"", "   ", "1,x", "0", "1,,2", "-3"} {
		_, err := parseIntList("alus", raw)
		if err == nil {
			t.Fatalf("parseIntList(%q) accepted invalid input", raw)
		}
		if !strings.Contains(err.Error(), "-alus") {
			t.Fatalf("error %q does not name the flag", err)
		}
	}
	// The offending token is reported.
	_, err = parseIntList("buses", "1,2,bogus")
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("error %v does not report the offending token", err)
	}
}

func TestParseIntListDedupesAndSorts(t *testing.T) {
	// Duplicates and unsorted input must not produce duplicate candidates
	// downstream: the parsed list is sorted and deduplicated.
	got, err := parseIntList("buses", "3,1,2,3,1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("parseIntList = %v, want [1 2 3]", got)
	}
}

func TestParseIntListEmptyMessage(t *testing.T) {
	// The empty string gets its own error, not `invalid count ""`.
	_, err := parseIntList("cmps", "")
	if err == nil {
		t.Fatal("empty list accepted")
	}
	if !strings.Contains(err.Error(), "empty list") || strings.Contains(err.Error(), `""`) {
		t.Fatalf("empty input reported as %q, want a dedicated empty-list message", err)
	}
}
