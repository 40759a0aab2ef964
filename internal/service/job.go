package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/jobspec"
	"repro/internal/obs"
)

// State is a job's lifecycle position.
type State string

// The job states. Queued and running jobs are "active" for admission;
// every other state is terminal.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	// StateFailed: the exploration errored (or its per-job timeout
	// expired) before completing.
	StateFailed State = "failed"
	// StateCancelled: DELETE /v1/jobs/{id} stopped the job.
	StateCancelled State = "cancelled"
	// StateInterrupted: Drain stopped the job; its checkpoint holds the
	// finished prefix and the same spec resumes on a restarted daemon.
	StateInterrupted State = "interrupted"
)

// Job is one submitted exploration. All methods are safe for concurrent
// use; the HTTP layer and the exploration goroutine share it.
type Job struct {
	ID   string
	Spec jobspec.Spec

	ctx      context.Context
	cancelFn context.CancelCauseFunc
	hub      *hub
	tracker  *dse.FrontTracker
	reg      *obs.Registry
	done     chan struct{}
	// onFinish, set by the server before the job starts, runs once as
	// the job finishes (see Server.retire).
	onFinish func(*Job)
	retired  bool // guarded by the server's mu: finished, hence evictable

	mu     sync.Mutex
	state  State
	errMsg string
	report []byte
}

func newJob(id string, spec jobspec.Spec) *Job {
	ctx, cancel := context.WithCancelCause(context.Background())
	reg := obs.NewRegistry()
	return &Job{
		ID:       id,
		Spec:     spec,
		ctx:      ctx,
		cancelFn: cancel,
		hub:      newHub(),
		tracker:  dse.NewFrontTrackerObs(reg),
		reg:      reg,
		done:     make(chan struct{}),
		state:    StateQueued,
	}
}

// cancel stops the job with the given cause (ErrCancelled, ErrDraining).
func (j *Job) cancel(cause error) { j.cancelFn(cause) }

// Cancel stops the job on behalf of a client.
func (j *Job) Cancel() { j.cancel(ErrCancelled) }

// Done closes when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Report returns the encoded final report, or nil while none exists. An
// interrupted or failed job may still carry a partial report.
func (j *Job) Report() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// Front snapshots the Pareto fronts over the evaluations so far.
func (j *Job) Front() *dse.FrontSnapshot { return j.tracker.Snapshot() }

// JobStatus is the serialized job state the HTTP layer returns.
type JobStatus struct {
	ID        string       `json:"id"`
	State     State        `json:"state"`
	Error     string       `json:"error,omitempty"`
	Evaluated int          `json:"evaluated"`
	Total     int          `json:"total"`
	Events    int          `json:"events"`
	Spec      jobspec.Spec `json:"spec"`
}

// Status snapshots the job for listings and polls. Progress comes from
// the front tracker, which deduplicates by candidate index — a restored
// evaluation that is re-announced around a resume counts once, so
// Evaluated can never exceed Total.
func (j *Job) Status() JobStatus {
	evaluated, total := j.tracker.Progress()
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:        j.ID,
		State:     j.state,
		Error:     j.errMsg,
		Evaluated: evaluated,
		Total:     total,
		Events:    j.hub.len(),
		Spec:      j.Spec,
	}
}

// sink is the job's dse.Config.EventSink: it feeds the event hub (live
// streams + history replay) and the front tracker, which also owns the
// progress accounting. Called concurrently by the exploration's workers.
func (j *Job) sink(ev dse.Event) {
	j.tracker.Observe(ev)
	j.hub.publish(ev)
}

func (j *Job) setState(st State) {
	j.mu.Lock()
	j.state = st
	j.mu.Unlock()
}

// finish hands the job back to the server (freeing its admission slot),
// records the terminal state and releases event streams.
func (j *Job) finish(st State, errMsg string, report []byte) {
	if j.onFinish != nil {
		j.onFinish(j)
	}
	j.mu.Lock()
	j.state = st
	j.errMsg = errMsg
	if report != nil {
		j.report = report
	}
	j.mu.Unlock()
	j.hub.close()
	close(j.done)
}

// run is the job goroutine: admission, exploration, report.
func (s *Server) run(job *Job) {
	defer s.wg.Done()

	// Admission: wait for a running slot; cancellation while queued is
	// terminal (the queue does not outlive a DELETE or a drain).
	select {
	case s.sem <- struct{}{}:
	case <-job.ctx.Done():
		job.finish(terminalState(context.Cause(job.ctx)), causeMsg(job.ctx), nil)
		return
	}
	defer func() { <-s.sem }()
	job.setState(StateRunning)
	s.reg.Counter("service.jobs.started").Inc()

	if job.Spec.Shard != nil {
		s.runSharded(job)
		return
	}

	cfg, sel, err := dse.FromSpec(job.Spec)
	if err != nil {
		job.finish(StateFailed, err.Error(), nil)
		return
	}
	cfg.Obs = job.reg
	cfg.Inject = s.opts.Inject
	cfg.Annotator = s.annotator(&job.Spec)
	cfg.EventSink = job.sink
	if path := s.checkpointPath(job.Spec); path != "" {
		ck, ckErr := dse.OpenCheckpoint(path, cfg)
		if ckErr != nil {
			// Mismatched or corrupt files yield a fresh checkpoint; the
			// job proceeds cold and overwrites the file.
			s.reg.Counter("service.checkpoint.open_errors").Inc()
			job.reg.Counter("durability.cold_restarts").Inc()
			job.reg.Emit(obs.Event{Kind: "warning", Msg: ckErr.Error()})
		}
		cfg.Checkpoint = ck
	}

	runCtx := job.ctx
	if job.Spec.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(job.ctx, job.Spec.Timeout.Std())
		defer cancel()
	}

	study := core.NewStudyWithConfig(cfg)
	runErr := study.ExploreContext(runCtx)
	// The exploration flushes on completion; an interrupted one must
	// persist its tail explicitly or the drain loses up to 15 entries.
	// The durable form: a drained daemon's checkpoint is a deliverable
	// (the restart resumes from it), so its rename is dir-fsynced too.
	_ = cfg.Checkpoint.FlushErr()

	report := buildReport(study, sel)
	if runErr == nil {
		if sel != (dse.SelectionSpec{}) {
			if err := study.Reselect(sel); err != nil {
				job.finish(StateFailed, err.Error(), report)
				return
			}
			report = buildReport(study, sel)
		}
		s.reg.Counter("service.jobs.done").Inc()
		job.finish(StateDone, "", report)
		return
	}
	st := terminalState(context.Cause(job.ctx))
	if st == StateFailed && errors.Is(runErr, context.DeadlineExceeded) {
		runErr = fmt.Errorf("job timeout %v exceeded: %w", time.Duration(job.Spec.Timeout), runErr)
	}
	s.reg.Counter("service.jobs." + string(st)).Inc()
	job.finish(st, runErr.Error(), report)
}

// terminalState maps a cancellation cause to the job's final state.
func terminalState(cause error) State {
	switch {
	case errors.Is(cause, ErrCancelled):
		return StateCancelled
	case errors.Is(cause, ErrDraining):
		return StateInterrupted
	default:
		return StateFailed
	}
}

func causeMsg(ctx context.Context) string {
	if cause := context.Cause(ctx); cause != nil {
		return cause.Error()
	}
	return ""
}

// buildReport encodes the study's (possibly partial) result; nil when
// the study holds no usable result at all.
func buildReport(study *core.Study, sel dse.SelectionSpec) []byte {
	jr, err := study.JSONResult(sel)
	if err != nil {
		return nil
	}
	b, err := jr.Encode()
	if err != nil {
		return nil
	}
	return b
}

// hub fans one job's event stream out to any number of HTTP streams:
// the full history replays to a new subscriber before live delivery
// begins, so a late GET /events still sees every event. Slow consumers
// drop events rather than stall the exploration's worker pool (each
// subscriber channel buffers 256; the stream's final close is reliable).
type hub struct {
	mu      sync.Mutex
	history []dse.Event
	subs    map[int]chan dse.Event
	nextID  int
	closed  bool
}

func newHub() *hub {
	return &hub{subs: make(map[int]chan dse.Event)}
}

func (h *hub) publish(ev dse.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.history = append(h.history, ev)
	for _, ch := range h.subs {
		select {
		case ch <- ev:
		default: // slow consumer: drop, the history keeps the record
		}
	}
}

func (h *hub) len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.history)
}

// subscribe returns the history so far plus a live channel. The channel
// closes when the job finishes; cancel detaches early. Subscribing to a
// finished job replays the full history over an already-closed channel.
func (h *hub) subscribe() (replay []dse.Event, ch <-chan dse.Event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = make([]dse.Event, len(h.history))
	copy(replay, h.history)
	c := make(chan dse.Event, 256)
	if h.closed {
		close(c)
		return replay, c, func() {}
	}
	id := h.nextID
	h.nextID++
	h.subs[id] = c
	return replay, c, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[id]; ok {
			delete(h.subs, id)
		}
	}
}

func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for id, ch := range h.subs {
		close(ch)
		delete(h.subs, id)
	}
}
