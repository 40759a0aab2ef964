// Process-sharded job execution: a job whose Spec.Shard is set fans
// out over N worker OS processes. The coordinator (runSharded) writes
// the worker spec, a read-only seed of the daemon's warm annotation
// cache and — for a guided search — the screened candidate list to a
// work directory, execs one worker per shard, forwards each
// worker's NDJSON event stream into the job's sink (so progress and
// live fronts aggregate across processes), restarts crashed workers
// from their own shard checkpoints up to a bound, and finally merges
// the shard checkpoints through dse.MergeExploreContext — producing a
// report byte-identical to the unsharded run of the same spec. The
// workers' newly annotated components are merged back into the shared
// annotator, so later jobs warm-start from the whole fan-out's work.
//
// Supervision covers hangs as well as crashes: every line a worker
// writes (candidate events, or explicit heartbeats when the shard is
// quiet) resets a per-worker stall watchdog, and a worker silent past
// the stall timeout is killed and restarted exactly like a crash — the
// two paths are told apart in the "dse.shard.stall_kills" vs
// "dse.shard.restarts_crash" counters ("dse.shard.restarts" stays the
// total). Restarts are paced by deterministic exponential backoff
// (seeded jitter, so two coordinators replay the same schedule) and
// bounded per worker lifetime. The budget, stall timeout, heartbeat
// interval and backoff shape are one fixed daemon policy (supervision),
// not job parameters: a client can choose how many workers, never how
// leniently they are watched.
//
// The worker side (ShardWorkerMain) is the same binary: cmd/ttadsed
// dispatches "-shard-worker" to it before flag parsing. It is a thin
// process boundary around dse.RunShard, the worker ttadse -shards runs
// too (cache, checkpoint and its final durable write live there). Kept
// here: the spec file, fault injection armed from TTADSE_FAULT_INJECT /
// TTADSE_FAULT_INJECT_ONCE* (armWorkerFaults: a live Injector cannot
// survive an exec), heartbeats, the NDJSON event stream on stdout and
// the counter relay into it. A non-zero exit tells the coordinator to
// restart the worker; the checkpoint makes that a resume, not a redo.
package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/faultinject"
	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/testcost"
)

// supervisionPolicy is the watchdog and restart policy a coordinator
// applies to every worker of a fan-out.
type supervisionPolicy struct {
	maxRestarts int           // restarts per worker lifetime
	stall       time.Duration // silence after which the watchdog kills a worker
	heartbeat   time.Duration // worker heartbeat interval, well below stall
	backoffBase time.Duration // pause before a worker's first restart
	backoffMax  time.Duration // cap on the doubling pause
}

// supervision is the daemon's shard supervision. Each worker is
// restarted at most twice, after a crash or a stall kill alike; a
// worker silent for two minutes is killed as stalled, and heartbeats
// every 30 s keep a quiet but live worker clear of that; restarts wait
// 250 ms doubling to 10 s plus seeded jitter, so a poisoned worker
// binary backs off instead of burning its budget in milliseconds. It
// is daemon policy, not a job parameter, so no client can weaken it;
// tests lower it.
var supervision = supervisionPolicy{
	maxRestarts: 2,
	stall:       2 * time.Minute,
	heartbeat:   2 * time.Minute / 4,
	backoffBase: 250 * time.Millisecond,
	backoffMax:  10 * time.Second,
}

// backoffDelay is the pause before restart number n (0-based) of one
// worker: min(max, base<<n) plus up to 50% seeded jitter, so a fleet of
// workers dying together does not restart in lockstep yet any given
// coordinator replays the same schedule.
func backoffDelay(n int, sup supervisionPolicy, rng *rand.Rand) time.Duration {
	d := sup.backoffMax
	if shifted := sup.backoffBase << uint(min(n, 30)); shifted > 0 && shifted < d {
		d = shifted
	}
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// backoffSeed derives the deterministic jitter seed of one worker's
// restart schedule from the job identity and the shard index.
func backoffSeed(hash string, index int) int64 {
	h := fnv.New64a()
	h.Write([]byte(hash))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(index))
	h.Write(b[:])
	return int64(h.Sum64())
}

// WorkerStallError reports a shard worker the coordinator killed
// because its event pipe stayed silent past the stall timeout — the
// hang-detection analogue of a crash, counted separately from one.
type WorkerStallError struct {
	Index, Shards int
	Timeout       time.Duration
	Err           error // the kill's exit error, for the curious
}

func (e *WorkerStallError) Error() string {
	return fmt.Sprintf("service: shard %d/%d worker silent for %v, killed by the stall watchdog",
		e.Index, e.Shards, e.Timeout)
}

func (e *WorkerStallError) Unwrap() error { return e.Err }

// shardCheckpointPath names shard i's checkpoint inside the work dir.
func shardCheckpointPath(dir, hash string, i, n int) string {
	return dse.ShardPath(filepath.Join(dir, "job-"+hash), i, n) + ".ckpt"
}

// runSharded is the coordinator half of a sharded job. Called from the
// job goroutine with the running slot already held.
func (s *Server) runSharded(job *Job) {
	cfg, sel, err := dse.FromSpec(job.Spec)
	if err != nil {
		job.finish(StateFailed, err.Error(), nil)
		return
	}
	ann := s.annotator(&job.Spec)
	cfg.Obs = job.reg
	cfg.Inject = s.opts.Inject
	cfg.Annotator = ann
	cfg.EventSink = job.sink

	// With a CheckpointDir the shard files persist across daemon
	// restarts (resubmitting the spec resumes every worker); without
	// one they live in a temp dir for the fan-out's duration.
	workDir := s.opts.CheckpointDir
	if workDir == "" {
		tmp, err := os.MkdirTemp("", "ttadsed-shards-")
		if err != nil {
			job.finish(StateFailed, err.Error(), nil)
			return
		}
		defer os.RemoveAll(tmp)
		workDir = tmp
	}

	hash := job.Spec.Hash()
	n := job.Spec.Shard.Shards
	sup := supervision

	// The worker spec is the job minus everything the coordinator owns:
	// the fan-out itself, cache and checkpoint paths (per-shard, passed
	// as flags) and the wall-clock bound (enforced here by killing the
	// workers through the context).
	wspec := job.Spec
	wspec.Shard = nil
	wspec.Cache = ""
	wspec.Checkpoint = ""
	wspec.Timeout = 0
	specPath := filepath.Join(workDir, "job-"+hash+".spec.json")
	if b, err := json.MarshalIndent(&wspec, "", "  "); err != nil {
		job.finish(StateFailed, err.Error(), nil)
		return
	} else if err := os.WriteFile(specPath, b, 0o644); err != nil {
		job.finish(StateFailed, err.Error(), nil)
		return
	}

	// Seed the workers with the daemon's warm annotations (read-only on
	// their side). Failure to write it only costs warmth, never the job.
	// Each worker writes its new annotations to dse.ShardPath(cacheBase),
	// and the coordinator unions them after the fan-out.
	cacheBase := filepath.Join(workDir, "job-"+hash+".cache")
	seedCache := cacheBase + ".seed"
	if err := ann.SaveFile(seedCache); err != nil {
		s.reg.Counter("service.cache.save_errors").Inc()
		job.reg.Emit(obs.Event{Kind: "warning",
			Msg: fmt.Sprintf("shard seed cache not written: %v", err)})
		seedCache = ""
	}

	runCtx := job.ctx
	if job.Spec.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(job.ctx, job.Spec.Timeout.Std())
		defer cancel()
	}

	// A guided search screens once, here, with the job's annotator: the
	// survivor list lands next to the shard checkpoints, where every
	// worker, restart and the merge read it. Without it, the workers
	// screen for themselves.
	if err := dse.PrepareCandidateList(runCtx, cfg, workDir); err != nil {
		job.sink(dse.Event{Kind: dse.EventWarning,
			Msg: fmt.Sprintf("candidate list not prepared, workers screen for themselves: %v", err)})
	}

	// Fan out: one supervisor goroutine per shard, each restarting its
	// worker from the shard checkpoint up to sup.maxRestarts times.
	workersGauge := job.reg.Gauge("dse.shard.workers")
	var live atomic.Int64
	var seq atomic.Int64 // coordinator-stamped sequence over all workers
	werrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ckpt := shardCheckpointPath(workDir, hash, i, n)
			cacheOut := dse.ShardPath(cacheBase, i, n)
			rng := rand.New(rand.NewSource(backoffSeed(hash, i)))
			for attempt := 0; ; attempt++ {
				workersGauge.Set(float64(live.Add(1)))
				err := s.runShardWorkerOnce(runCtx, job, &seq, specPath, seedCache, ckpt, cacheOut, i, n, sup)
				workersGauge.Set(float64(live.Add(-1)))
				if err == nil {
					return
				}
				if runCtx.Err() != nil {
					werrs[i] = context.Cause(runCtx)
					return
				}
				if attempt >= sup.maxRestarts {
					werrs[i] = err
					return
				}
				var stall *WorkerStallError
				cause := "died"
				if errors.As(err, &stall) {
					cause = "stalled"
					job.reg.Counter("dse.shard.stall_kills").Inc()
				} else {
					job.reg.Counter("dse.shard.restarts_crash").Inc()
				}
				job.reg.Counter("dse.shard.restarts").Inc()
				job.sink(dse.Event{Kind: dse.EventWarning, Seq: seq.Add(1),
					Msg: fmt.Sprintf("shard %d/%d worker %s (attempt %d of %d), resuming from its checkpoint: %v",
						i, n, cause, attempt+1, sup.maxRestarts+1, err)})
				delay := backoffDelay(attempt, sup, rng)
				job.reg.Counter("dse.shard.backoff_ns").Add(int64(delay))
				t := time.NewTimer(delay)
				select {
				case <-runCtx.Done():
					t.Stop()
					werrs[i] = context.Cause(runCtx)
					return
				case <-t.C:
				}
			}
		}(i)
	}
	wg.Wait()

	fail := func(msg string, report []byte) {
		st := terminalState(context.Cause(job.ctx))
		if st == StateFailed && runCtx.Err() != nil && job.ctx.Err() == nil {
			msg = fmt.Sprintf("job timeout %v exceeded: %s", job.Spec.Timeout.Std(), msg)
		}
		s.reg.Counter("service.jobs." + string(st)).Inc()
		job.finish(st, msg, report)
	}
	var failed []string
	for i, e := range werrs {
		if e != nil {
			failed = append(failed, fmt.Sprintf("shard %d/%d: %v", i, n, e))
		}
	}
	if len(failed) > 0 {
		fail(strings.Join(failed, "; "), nil)
		return
	}

	// Union the workers' new annotations into the shared annotator so
	// later jobs (and this merge's optional verification) start warm.
	if _, err := ann.MergeFiles(dse.ShardPaths(cacheBase, n)...); err != nil {
		s.reg.Counter("service.cache.load_errors").Inc()
		job.reg.Emit(obs.Event{Kind: "warning",
			Msg: fmt.Sprintf("shard caches not merged: %v", err)})
	}

	// Canonical merge: rebuild the candidate list (a guided search reads
	// the list prepared above), validate that the shard checkpoints tile
	// it, rebuild fronts in index order. The merge emits the job's single
	// "done" event.
	paths := make([]string, 0, n)
	for i := 0; i < n; i++ {
		paths = append(paths, shardCheckpointPath(workDir, hash, i, n))
	}
	res, mergeErr := dse.MergeExploreContext(runCtx, cfg, paths)
	study := core.NewStudyWithConfig(cfg)
	study.Result = res
	report := buildReport(study, sel)
	if mergeErr != nil {
		fail(mergeErr.Error(), report)
		return
	}
	if sel != (dse.SelectionSpec{}) {
		if err := study.Reselect(sel); err != nil {
			job.finish(StateFailed, err.Error(), report)
			return
		}
		report = buildReport(study, sel)
	}
	s.reg.Counter("service.jobs.done").Inc()
	job.finish(StateDone, "", report)
}

// runShardWorkerOnce execs one worker process, forwards its NDJSON
// event stream into the job's sink, and returns the worker's failure
// (exit status plus a stderr tail) if any. Worker "done" events are
// swallowed — the merge emits the job's single terminal event — and so
// are "heartbeat" (pure liveness: any line resets the stall watchdog)
// and "counter" events (folded into the job registry instead).
func (s *Server) runShardWorkerOnce(ctx context.Context, job *Job, seq *atomic.Int64,
	specPath, seedCache, ckpt, cacheOut string, index, shards int, sup supervisionPolicy) error {
	argv := s.opts.ShardWorkerCommand
	if len(argv) == 0 {
		argv = []string{os.Args[0], "-shard-worker"}
	}
	args := append(append([]string(nil), argv[1:]...),
		"-spec", specPath,
		"-shards", strconv.Itoa(shards),
		"-shard-index", strconv.Itoa(index),
		"-checkpoint", ckpt,
		"-cache-out", cacheOut,
	)
	if seedCache != "" {
		args = append(args, "-cache", seedCache)
	}
	args = append(args, "-heartbeat", sup.heartbeat.String())

	// The stall watchdog cancels the worker's context — killing the
	// process — when no stdout line has arrived for sup.stall. The
	// stalled flag tells that kill apart from a parent cancellation.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var stalled atomic.Bool
	cmd := exec.CommandContext(wctx, argv[0], args...)
	cmd.Env = append(os.Environ(), s.opts.ShardWorkerEnv...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	watchdog := time.AfterFunc(sup.stall, func() {
		stalled.Store(true)
		cancel()
	})
	defer watchdog.Stop()
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		watchdog.Reset(sup.stall)
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev dse.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			continue // not an event line (worker chatter); drop
		}
		switch ev.Kind {
		case dse.EventDone, dse.EventHeartbeat:
			continue
		case dse.EventCounter:
			if ev.Code != "" {
				job.reg.Counter(ev.Code).Add(max(int64(ev.N), 1))
			}
			continue
		}
		if ev.Code != "" {
			// A coded warning doubles as a counter increment, so worker
			// warnings are queryable in /v1/metrics, not only readable in
			// the event stream.
			job.reg.Counter(ev.Code).Inc()
		}
		// Re-stamp: each worker numbers its own stream from 1; the job's
		// stream needs one monotone sequence across all of them.
		ev.Seq = seq.Add(1)
		job.sink(ev)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		if stalled.Load() && ctx.Err() == nil {
			return &WorkerStallError{Index: index, Shards: shards, Timeout: sup.stall, Err: err}
		}
		if msg := stderrTail(&stderr); msg != "" {
			return fmt.Errorf("%w: %s", err, msg)
		}
		return err
	}
	return scanErr
}

// stderrTail returns the last few hundred bytes of a worker's stderr —
// enough to name the failure without flooding the job's error message.
func stderrTail(b *bytes.Buffer) string {
	msg := strings.TrimSpace(b.String())
	const max = 512
	if len(msg) > max {
		msg = "..." + msg[len(msg)-max:]
	}
	return msg
}

// ShardWorkerMain is the entry point of one shard worker process.
// cmd/ttadsed dispatches here when invoked as "ttadsed -shard-worker
// <flags>"; tests re-exec the test binary into it. It runs dse.RunShard
// over the spec file's exploration and this worker's slot, streaming
// NDJSON dse.Events on stdout. The exit code is 0 on a complete shard,
// 1 on any failure (the coordinator restarts the worker, which resumes
// from the checkpoint), 2 on a flag error.
func ShardWorkerMain(args []string) int {
	fs := flag.NewFlagSet("shard-worker", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	specPath := fs.String("spec", "", "job spec JSON file")
	shards := fs.Int("shards", 1, "total shard count")
	index := fs.Int("shard-index", 0, "this worker's shard index")
	ckpt := fs.String("checkpoint", "", "shard checkpoint file (the worker's product)")
	cache := fs.String("cache", "", "seed annotation cache, read-only warm start (optional)")
	cacheOut := fs.String("cache-out", "", "file for this shard's new annotations (optional)")
	heartbeat := fs.Duration("heartbeat", 0, "liveness heartbeat interval on the event stream (0 = none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runShardWorker(*specPath, *shards, *index, *ckpt, *cache, *cacheOut, *heartbeat); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// Environment variables arming fault injection inside shard worker
// processes (a live *faultinject.Injector cannot cross an exec):
//
//	TTADSE_FAULT_INJECT        a faultinject.ParsePlans spec armed in
//	                           every worker process, restarts included.
//	TTADSE_FAULT_INJECT_ONCE*  "markerfile|spec" — armed only in the one
//	                           process, across the whole fan-out, that
//	                           atomically claims the marker file. Each
//	                           process claims at most one such fault, so
//	                           several ONCE variables land on distinct
//	                           workers; a restarted worker finds its
//	                           marker claimed and runs clean.
const (
	faultInjectEnv     = "TTADSE_FAULT_INJECT"
	faultInjectOnceEnv = "TTADSE_FAULT_INJECT_ONCE"
)

// armWorkerFaults arms a worker's injector from the environment. See
// the faultInjectEnv docs for the variable grammar.
func armWorkerFaults(inj *faultinject.Injector) error {
	if spec := os.Getenv(faultInjectEnv); spec != "" {
		if err := inj.ArmSpec(spec); err != nil {
			return err
		}
	}
	for _, kv := range os.Environ() {
		name, val, _ := strings.Cut(kv, "=")
		if !strings.HasPrefix(name, faultInjectOnceEnv) || val == "" {
			continue
		}
		marker, spec, ok := strings.Cut(val, "|")
		if !ok {
			return fmt.Errorf("service: %s=%q: want markerfile|spec", name, val)
		}
		f, err := os.OpenFile(marker, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			if errors.Is(err, fs.ErrExist) {
				continue // another process claimed this fault
			}
			return err
		}
		f.Close()
		if err := inj.ArmSpec(spec); err != nil {
			return err
		}
		break // one once-fault per process, so faults spread over workers
	}
	return nil
}

func runShardWorker(specPath string, shards, index int, ckptPath, cachePath, cacheOut string, heartbeat time.Duration) error {
	if specPath == "" {
		return errors.New("service: shard worker needs -spec")
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec jobspec.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("service: decoding worker spec %s: %w", specPath, err)
	}
	cfg, _, err := dse.FromSpec(spec)
	if err != nil {
		return err
	}
	cfg.Shard = &dse.ShardRange{Count: shards, Index: index}
	cfg.Obs = obs.NewRegistry()
	cfg.Annotator = testcost.NewAnnotator(cfg.Width, cfg.Seed)
	cfg.Annotator.ATPGDeadline = spec.ATPGDeadline.Std()

	inj := faultinject.New(int64(index) + 1)
	if err := armWorkerFaults(inj); err != nil {
		return err
	}
	cfg.Inject = inj
	// The worker-birth injection point, before anything is written to
	// stdout: a ModeStall here makes the process genuinely silent, so
	// only the coordinator's watchdog can end it.
	if err := inj.Hit(faultinject.ShardWorker); err != nil {
		return err
	}

	// The counter relay runs on every heartbeat and once at the end, so
	// incidents cross the process boundary even if the worker later dies.
	enc := json.NewEncoder(os.Stdout)
	var mu sync.Mutex
	encode := func(ev dse.Event) { enc.Encode(&ev) } // best-effort stream; a dead coordinator kills us anyway
	emit := func(ev dse.Event) {
		mu.Lock()
		encode(ev)
		mu.Unlock()
	}
	relayed := make(map[string]int64)
	relay := func() {
		mu.Lock()
		relayCounters(cfg.Obs, relayed, encode)
		mu.Unlock()
	}
	cfg.EventSink = emit

	// Heartbeats prove process liveness to the coordinator's stall
	// watchdog through gaps with no candidate traffic (the seed cache
	// load, a huge restored prefix, a slow ATPG run). Any line resets
	// the watchdog; heartbeats just guarantee lines keep coming. They
	// start after the worker-birth injection point above — a stalled
	// worker must stay genuinely silent.
	if heartbeat > 0 {
		hbStop := make(chan struct{})
		var hbDone sync.WaitGroup
		hbDone.Add(1)
		go func() {
			defer hbDone.Done()
			t := time.NewTicker(heartbeat)
			defer t.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-t.C:
					emit(dse.Event{Kind: dse.EventHeartbeat})
					relay()
				}
			}
		}()
		defer func() {
			close(hbStop)
			hbDone.Wait()
		}()
	}

	err = dse.RunShard(context.Background(), cfg, ckptPath, cachePath, cacheOut)
	relay()
	return err
}

// relayedPrefixes name the worker-local counters the coordinator folds
// into the job registry: durability incidents, and the guided search's
// screen counters, so a job's dse.search.cheap_evals counts every screen
// of the fan-out.
var relayedPrefixes = []string{"durability.", "dse.search."}

// relayCounters emits one "counter" event per relayed counter that grew
// since the last call (sent holds the values already relayed), carrying
// worker-local metrics across the process boundary.
func relayCounters(reg *obs.Registry, sent map[string]int64, emit func(dse.Event)) {
	for name, v := range reg.Snapshot().Counters {
		for _, prefix := range relayedPrefixes {
			if strings.HasPrefix(name, prefix) && v > sent[name] {
				emit(dse.Event{Kind: dse.EventCounter, Code: name, N: int(v - sent[name])})
				sent[name] = v
			}
		}
	}
}
