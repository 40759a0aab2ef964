package service

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/jobspec"
)

// lowerSupervision swaps the daemon's shard supervision for p until
// the test ends.
func lowerSupervision(t *testing.T, p supervisionPolicy) {
	t.Helper()
	prev := supervision
	supervision = p
	t.Cleanup(func() { supervision = prev })
}

// chaosShardSpec lowers the supervision to that of the chaos drills and
// returns a shards-way topology: a stall timeout short enough to detect
// the deliberately hung worker in seconds but wide enough that healthy
// workers starved by an oversubscribed test machine (8 processes under
// -race) are never mistaken for stalls, and near-zero backoff so
// restarts do not dominate the test's wall clock.
func chaosShardSpec(t *testing.T, shards int) *jobspec.ShardSpec {
	lowerSupervision(t, supervisionPolicy{
		maxRestarts: 2,
		stall:       10 * time.Second,
		heartbeat:   250 * time.Millisecond,
		backoffBase: 10 * time.Millisecond,
		backoffMax:  50 * time.Millisecond,
	})
	return &jobspec.ShardSpec{Shards: shards}
}

// TestShardedJobChaosTornAndStall is the acceptance drill for the
// durability + supervision layer: an 8-shard fan-out in which one
// worker's checkpoint writes are torn mid-record (every flush, until it
// dies and its restart runs clean against the damaged file) and a
// different worker hangs silently at birth (until the stall watchdog
// kills it). The job must converge to a report byte-identical to the
// undisturbed unsharded run, with both failure paths visible in the
// split restart counters and the durability incidents relayed from the
// worker processes into the job registry.
func TestShardedJobChaosTornAndStall(t *testing.T) {
	dir := t.TempDir()
	srv := shardServer(t,
		faultInjectOnceEnv+"_TORN="+filepath.Join(dir, "torn")+"|dse.checkpoint.write=torn:frac=0.9",
		faultInjectOnceEnv+"_STALL="+filepath.Join(dir, "stall")+"|shard.worker=stall",
	)
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

	s := spec
	s.Shard = chaosShardSpec(t, 8)
	job, err := srv.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st != StateDone {
		t.Fatalf("chaos job ended %s: %s", st, job.Status().Error)
	}
	if got := job.Report(); !bytes.Equal(got, want) {
		t.Fatalf("chaos report differs from the unsharded run: sha256 %x vs %x",
			sha256.Sum256(got), sha256.Sum256(want))
	}

	// Both injected faults must actually have fired: the markers are
	// claimed, and each failure shows up under its own counter.
	for _, marker := range []string{"torn", "stall"} {
		if _, err := os.Stat(filepath.Join(dir, marker)); err != nil {
			t.Fatalf("no worker claimed the %s fault: %v", marker, err)
		}
	}
	stalls := job.reg.Counter("dse.shard.stall_kills").Value()
	crashes := job.reg.Counter("dse.shard.restarts_crash").Value()
	total := job.reg.Counter("dse.shard.restarts").Value()
	if stalls < 1 {
		t.Errorf("dse.shard.stall_kills = %d, want >= 1 (one worker hung at birth)", stalls)
	}
	if crashes < 1 {
		t.Errorf("dse.shard.restarts_crash = %d, want >= 1 (torn final flush fails its worker)", crashes)
	}
	if total != stalls+crashes {
		t.Errorf("dse.shard.restarts = %d, want stall_kills + restarts_crash = %d", total, stalls+crashes)
	}
	if job.reg.Counter("dse.shard.backoff_ns").Value() <= 0 {
		t.Error("dse.shard.backoff_ns = 0: restarts were not paced")
	}

	// The torn worker's restart faced a damaged checkpoint; however the
	// tear landed (recoverable prefix or quarantined file), the incident
	// must have crossed the process boundary into the job registry.
	durability := int64(0)
	for _, c := range []string{
		"durability.prefix_recovered", "durability.quarantined",
		"durability.crc_fail", "durability.cold_restarts",
	} {
		durability += job.reg.Counter(c).Value()
	}
	if durability == 0 {
		t.Error("no durability.* incident reached the job registry despite torn checkpoint writes")
	}
}

// TestShardedSearchJobTornList: the coordinator's candidate list write
// is torn. The four workers of the fan-out find the damaged list,
// quarantine it and screen for themselves; the report stays
// byte-identical and the quarantine reaches the job registry.
func TestShardedSearchJobTornList(t *testing.T) {
	opts := shardOptions(t)
	opts.Inject = faultinject.New(1)
	opts.Inject.Arm(faultinject.CandidateList, faultinject.Plan{Mode: faultinject.ModeTornWrite, Frac: 0.5, Limit: 1})
	srv := NewServer(opts)
	spec := searchShardSpec()
	want := unshardedReport(t, srv, spec)

	spec.Shard = chaosShardSpec(t, 4)
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st != StateDone {
		t.Fatalf("torn-list job ended %s: %s", st, job.Status().Error)
	}
	if !bytes.Equal(job.Report(), want) {
		t.Fatalf("torn-list report differs from the unsharded run: sha256 %x vs %x",
			sha256.Sum256(job.Report()), sha256.Sum256(want))
	}
	if n := opts.Inject.Fires(faultinject.CandidateList); n != 1 {
		t.Fatalf("candidate list write torn %d times, want 1", n)
	}
	if n := job.reg.Counter("dse.search.list_write_errors").Value(); n != 1 {
		t.Errorf("dse.search.list_write_errors = %d, want 1 (the coordinator's torn write)", n)
	}
	if n := job.reg.Counter("durability.quarantined").Value(); n < 1 {
		t.Errorf("durability.quarantined = %d, want >= 1 (the torn list)", n)
	}
}

// TestShardedJobStallRestartsExhausted pins the failure side of stall
// supervision: a fan-out whose every worker process hangs at birth must
// end failed with the stall watchdog's typed message once the restart
// budget runs out — never hang the job itself.
func TestShardedJobStallRestartsExhausted(t *testing.T) {
	srv := shardServer(t, faultInjectEnv+"=shard.worker=stall")
	lowerSupervision(t, supervisionPolicy{
		maxRestarts: 1,
		stall:       time.Second,
		heartbeat:   time.Second / 4,
		backoffBase: 10 * time.Millisecond,
		backoffMax:  20 * time.Millisecond,
	})
	spec := smallSpec()
	spec.Shard = &jobspec.ShardSpec{Shards: 2}
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st != StateFailed {
		t.Fatalf("job with always-stalling workers ended %s, want failed", st)
	}
	if msg := job.Status().Error; !strings.Contains(msg, "stall watchdog") {
		t.Fatalf("failure message %q does not name the stall watchdog", msg)
	}
	if got := job.reg.Counter("dse.shard.stall_kills").Value(); got != 2 {
		t.Fatalf("dse.shard.stall_kills = %d, want 2 (2 workers x 1 restart)", got)
	}
	if got := job.reg.Counter("dse.shard.restarts_crash").Value(); got != 0 {
		t.Fatalf("dse.shard.restarts_crash = %d, want 0 (nothing crashed, everything hung)", got)
	}
}

// TestArmWorkerFaultsOnceClaim pins the marker-file protocol directly:
// of many claimants only one arms each once-fault, a process claims at
// most one, and malformed values are loud errors.
func TestArmWorkerFaultsOnceClaim(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(faultInjectOnceEnv+"_A", filepath.Join(dir, "a")+"|dse.eval=error:limit=1")
	t.Setenv(faultInjectOnceEnv+"_B", filepath.Join(dir, "b")+"|atpg.pattern=error:limit=1")

	// First "process": claims exactly one fault (A, the first variable).
	inj1 := faultinject.New(1)
	if err := armWorkerFaults(inj1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a")); err != nil {
		t.Fatalf("first claimant did not create marker a: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "b")); err == nil {
		t.Fatal("first claimant took both faults; they must spread over workers")
	}
	if err := inj1.Hit(faultinject.DSEEval); err == nil {
		t.Fatal("claimed fault A is not armed")
	}
	if err := inj1.Hit(faultinject.ATPGPattern); err != nil {
		t.Fatalf("unclaimed fault B armed on the first claimant: %v", err)
	}

	// Second "process": A is taken, so it claims B.
	inj2 := faultinject.New(2)
	if err := armWorkerFaults(inj2); err != nil {
		t.Fatal(err)
	}
	if err := inj2.Hit(faultinject.ATPGPattern); err == nil {
		t.Fatal("claimed fault B is not armed on the second claimant")
	}

	// Third "process": everything claimed, nothing armed.
	inj3 := faultinject.New(3)
	if err := armWorkerFaults(inj3); err != nil {
		t.Fatal(err)
	}
	if err := inj3.Hit(faultinject.DSEEval); err != nil {
		t.Fatalf("third claimant armed A: %v", err)
	}

	t.Setenv(faultInjectOnceEnv+"_BAD", "no-separator-here")
	if err := armWorkerFaults(faultinject.New(4)); err == nil {
		t.Fatal("malformed once-fault value accepted silently")
	}
}
