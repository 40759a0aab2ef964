// Command ttadsed is the exploration daemon: design and test space
// explorations are submitted as jobs over HTTP/JSON, progress is
// streamed live, partial Pareto fronts and final reports are fetchable
// mid-run, and jobs can be cancelled. One process-wide annotation cache
// is shared across jobs, so concurrent explorations warm each other.
//
// Usage:
//
//	ttadsed [-addr :8080] [-max-jobs 2] [-queue 8]
//	        [-cache anno.cache] [-checkpoint-dir /var/lib/ttadsed]
//
// Quick start:
//
//	ttadsed -addr :8080 &
//	curl -s -X POST localhost:8080/v1/jobs -d '{"workload":"crypt"}'
//	curl -Ns localhost:8080/v1/jobs/job-1/events   # live NDJSON stream
//	curl -s localhost:8080/v1/jobs/job-1/front     # partial fronts
//	curl -s localhost:8080/v1/jobs/job-1/result    # 202 mid-run, 200 done
//
// The POST body is a jobspec.Spec of at most 1 MiB (413 beyond). Unknown
// keys answer 400, except the two retired throughput keys older clients
// may still send (ATPG worker count and fault-simulation lane width):
// they never changed a result, and are ignored.
//
// On SIGTERM or SIGINT the daemon drains: intake stops (503), running
// jobs are interrupted and checkpoint their finished prefix (with
// -checkpoint-dir), the warm annotation cache is flushed (with -cache),
// and the process exits. A restarted daemon given the same flags
// resumes resubmitted specs from their checkpoints.
//
// Sharded jobs (spec field "shard", which takes only "shards") fan out
// over worker processes of this same binary, supervised for hangs as
// well as crashes: a worker silent for 2 minutes is killed and
// restarted from its checkpoint, with deterministic exponential backoff
// between restarts and a budget of two restarts per worker. That
// supervision is fixed daemon policy; the retired per-job keys
// (max_restarts, stall_timeout, heartbeat_interval, backoff_base,
// backoff_max, restart_window) answer 400. Checkpoint and cache files are CRC-framed
// and written atomically; a file torn by a kill resumes from its intact
// prefix, an irrecoverably corrupt one is quarantined to *.corrupt.
// Every incident is countable under durability.* and dse.shard.* in
// GET /v1/metrics.
//
// Chaos drills: setting TTADSE_FAULT_INJECT in a worker's environment
// to a faultinject.ParsePlans spec (e.g.
// "dse.checkpoint.write=torn:frac=0.5;shard.worker=stall") arms fault
// injection inside every worker process; TTADSE_FAULT_INJECT_ONCE*
// variables hold "markerfile|spec" pairs armed in exactly one worker
// process per fan-out (the marker file is claimed atomically). See
// internal/service.armWorkerFaults.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a slow or idle connection cannot hold a server goroutine
// indefinitely. Request bodies are bounded by size in the service.
const readHeaderTimeout = 10 * time.Second

func main() {
	// A sharded job's worker processes are this same binary: the
	// coordinator (internal/service) execs "ttadsed -shard-worker
	// <flags>", dispatched here before the daemon's own flag parsing.
	if len(os.Args) > 1 && os.Args[1] == "-shard-worker" {
		os.Exit(service.ShardWorkerMain(os.Args[2:]))
	}
	log.SetFlags(0)
	log.SetPrefix("ttadsed: ")
	addr := flag.String("addr", ":8080", "listen address")
	maxJobs := flag.Int("max-jobs", 2, "explorations running concurrently")
	queue := flag.Int("queue", 8, "jobs waiting beyond the running ones before 429")
	cache := flag.String("cache", "", "warm annotation cache file (loaded at startup, saved on drain)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for per-spec checkpoint files (enables drain/resume)")
	drainWait := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	flag.Parse()

	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	srv := service.NewServer(service.Options{
		MaxConcurrent: *maxJobs,
		QueueDepth:    *queue,
		CachePath:     *cache,
		CheckpointDir: *ckptDir,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	errs := make(chan error, 1)
	go func() { errs <- hs.ListenAndServe() }()
	log.Printf("listening on %s (max %d jobs, queue %d)", *addr, *maxJobs, *queue)

	select {
	case sig := <-stop:
		log.Printf("%v: draining", sig)
	case err := <-errs:
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	log.Print("drained")
}
