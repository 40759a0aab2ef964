// Package dse implements the design and test space exploration of the
// paper: it enumerates TTA templates (bus counts, function-unit mixes,
// register-file shapes), evaluates each candidate's circuit area,
// execution time (schedule cycles of the Crypt kernel times the
// architecture's clock period) and analytical test cost, extracts the 2-D
// area/time Pareto front (figure 2), lifts it to the 3-D
// area/time/test-cost front (figure 8), and selects the final architecture
// with a weighted norm (figure 9).
package dse

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypt"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/power"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/testcost"
	"repro/internal/tta"
)

// RFSpec describes one register file of a candidate.
type RFSpec struct {
	Regs, In, Out int
}

func (r RFSpec) String() string { return fmt.Sprintf("%dx(%dw%dr)", r.Regs, r.In, r.Out) }

// Config spans the explored space. Zero-value fields take the defaults of
// DefaultConfig.
type Config struct {
	Width int
	Seed  int64

	Buses     []int
	ALUCounts []int
	CMPCounts []int
	RFSets    [][]RFSpec

	// Assigns lists the port-to-bus assignment strategies to explore.
	// Different assignments of the same structure share area and cycle
	// count but differ in CD and hence test cost — the paper's figure 6
	// effect, and the reason 2-D-close points spread out on the test axis.
	Assigns []tta.AssignStrategy

	// Workload is the scheduled kernel; WorkloadReps scales the kernel's
	// cycle count to the full application (crypt: 400 DES rounds).
	Workload     *program.Graph
	WorkloadReps int

	// BusAreaPerBit models the wiring/driver area of one bus bit line;
	// BusDelay adds the interconnect contribution to the clock period.
	BusAreaPerBit float64
	BusDelay      float64

	// Annotator supplies the gate-level back-annotation. Sharing one
	// across explorations reuses its ATPG cache.
	Annotator *testcost.Annotator

	// EnergyModel, when non-nil, adds a calibrated energy estimate to
	// every candidate (an extension beyond the paper's three axes).
	EnergyModel *power.Model

	// Parallelism bounds the number of candidates evaluated concurrently.
	// 0 selects GOMAXPROCS; negative values are a configuration error
	// (reported by Explore/ExploreContext). Results are identical at any
	// setting: candidates are independent and the annotator cache is
	// synchronized.
	Parallelism int

	// EventSink, when non-nil, receives the exploration's typed progress
	// events (candidate/restored completions, isolated panics, degraded
	// annotations, warnings, and a final "done") synchronously from the
	// emitting goroutine — it must be fast and concurrency-safe. See
	// Event for the schema, Config.Events for a channel adapter, and
	// FrontTracker for a ready-made live-front consumer. A nil sink
	// costs nothing.
	EventSink func(Event)

	// Obs, when non-nil, collects the exploration's metrics: per-stage
	// spans (dse > enumerate/evaluate/pareto/sim with sched and atpg
	// under evaluate), candidate counters, annotator cache hit rate,
	// worker utilization, and a per-candidate-completion progress event
	// stream. It is forwarded to the scheduler, the annotator's ATPG runs
	// and the functional simulator. Callers opt in per exploration — no
	// global state. A nil registry costs nothing.
	Obs *obs.Registry

	// VerifySelected, when set, functionally verifies the selected
	// candidate after the exploration: its schedule is re-derived and
	// executed on the cycle-accurate simulator (internal/sim) with every
	// transported value checked against the dataflow reference. The run
	// is recorded under the "sim" span of Obs.
	VerifySelected bool

	// Checkpoint, when non-nil, restores completed evaluations recorded
	// by a previous run of the same exploration and persists new ones as
	// workers finish (see OpenCheckpoint). A resumed run produces
	// byte-identical results to an uninterrupted one.
	Checkpoint *Checkpoint

	// Inject, when non-nil, arms deterministic fault injection across
	// the exploration: candidate evaluations (faultinject.DSEEval), the
	// annotator's ATPG runs and cache IO, and checkpoint writes. It is
	// forwarded to the annotator unless the annotator carries its own.
	// Nil (the default) costs nothing.
	Inject *faultinject.Injector

	// Search, when non-nil, replaces the exhaustive cross-product
	// enumeration (Buses × ALUCounts × CMPCounts × RFSets × Assigns)
	// with the guided GA + successive-halving exploration over the
	// widened parameter space (see SearchSpec and SearchSpaceSize). Only
	// the promoted survivors reach the full evaluation pipeline; events,
	// checkpoints, fronts and selection behave exactly as in sweep mode,
	// over the survivor list. The enumeration fields above are ignored.
	// With a Checkpoint, the survivors are also persisted as a candidate
	// list in the checkpoint's directory, and a run that finds a valid
	// list there skips the screen (see PrepareCandidateList).
	Search *SearchSpec

	// Shard, when non-nil, makes this run one worker of a process-sharded
	// exploration: the full candidate list is still produced (it is a
	// pure function of the config, so every shard holds the same list
	// with the same global indices; a guided search reads it from the
	// candidate list the first worker, or the daemon coordinator,
	// persisted next to the checkpoint instead of screening again), but
	// only the contiguous slice shardBounds assigns to Shard.Index is
	// evaluated. The run's product is its checkpoint file — Checkpoint is
	// required — stamped with the shard header; fronts and selection are
	// left to the merge (MergeExploreContext), which is the only way to
	// see the whole picture. Events keep global candidate indices and the
	// global total.
	Shard *ShardRange

	// SpecHash, when non-empty, is the jobspec.Spec.Hash() result
	// identity stamped into checkpoint files, binding a shard checkpoint
	// to its job across resumes and merges. Empty skips the check
	// (direct Config users have no spec).
	SpecHash string
}

// DefaultConfig returns the exploration used for the paper's figures: the
// crypt round kernel over 1-4 buses, 1-3 ALUs, 1-2 comparators and six
// register-file arrangements.
func DefaultConfig() (Config, error) {
	kernel, err := crypt.BuildCryptKernel(1)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Width:     16,
		Seed:      7,
		Buses:     []int{1, 2, 3, 4},
		ALUCounts: []int{1, 2, 3},
		CMPCounts: []int{1, 2},
		RFSets: [][]RFSpec{
			{{8, 1, 1}, {8, 1, 1}},
			{{8, 1, 1}, {12, 1, 1}},
			{{8, 1, 2}, {12, 1, 1}},
			{{12, 1, 2}, {12, 1, 2}},
			{{16, 1, 2}},
			{{16, 2, 2}, {16, 1, 2}},
		},
		Assigns:       []tta.AssignStrategy{tta.SpreadFirst, tta.Packed},
		Workload:      kernel,
		WorkloadReps:  crypt.RoundsPerHash,
		BusAreaPerBit: 3.0,
		BusDelay:      1.5,
	}, nil
}

func (c *Config) fillDefaults() error {
	if c.Parallelism < 0 {
		return fmt.Errorf("dse: Parallelism %d is negative (use 0 for GOMAXPROCS)", c.Parallelism)
	}
	if c.Shard != nil {
		if c.Shard.Count < 1 {
			return fmt.Errorf("dse: shard count %d (want >= 1)", c.Shard.Count)
		}
		if c.Shard.Index < 0 || c.Shard.Index >= c.Shard.Count {
			return fmt.Errorf("dse: shard index %d out of range [0,%d)", c.Shard.Index, c.Shard.Count)
		}
	}
	if c.Width == 0 {
		c.Width = 16
	}
	if c.Workload == nil {
		k, err := crypt.BuildCryptKernel(1)
		if err != nil {
			return err
		}
		c.Workload = k
		c.WorkloadReps = crypt.RoundsPerHash
	}
	if len(c.Assigns) == 0 {
		c.Assigns = []tta.AssignStrategy{tta.SpreadFirst}
	}
	if c.WorkloadReps == 0 {
		c.WorkloadReps = 1
	}
	if len(c.Buses) == 0 {
		c.Buses = []int{1, 2, 3, 4}
	}
	if len(c.ALUCounts) == 0 {
		c.ALUCounts = []int{1, 2}
	}
	if len(c.CMPCounts) == 0 {
		c.CMPCounts = []int{1}
	}
	if len(c.RFSets) == 0 {
		c.RFSets = [][]RFSpec{{{8, 1, 1}, {12, 1, 1}}}
	}
	if c.BusAreaPerBit == 0 {
		c.BusAreaPerBit = 3.0
	}
	if c.BusDelay == 0 {
		c.BusDelay = 1.5
	}
	if c.Annotator == nil {
		c.Annotator = testcost.NewAnnotator(c.Width, c.Seed)
	}
	// An annotator shared across concurrent explorations (the ttadsed
	// pool) must be fully configured before sharing; the nil checks
	// below then never write, so the shared fields are read-only here.
	if c.Annotator.Obs == nil && c.Obs != nil {
		c.Annotator.Obs = c.Obs
	}
	if c.Annotator.ATPGWorkers == 0 {
		c.Annotator.ATPGWorkers = c.atpgWorkerBudget()
	}
	if c.Annotator.Inject == nil && c.Inject != nil {
		c.Annotator.Inject = c.Inject
	}
	return nil
}

// atpgWorkerBudget is the per-ATPG-run worker count for an annotator
// that leaves ATPGWorkers unset: the core budget left per concurrent
// candidate evaluation, so Parallelism × ATPGWorkers ≤ GOMAXPROCS and the
// two parallelism levels never oversubscribe.
func (c *Config) atpgWorkerBudget() int {
	evals := c.Parallelism
	if evals <= 0 {
		evals = runtime.GOMAXPROCS(0)
	}
	w := runtime.GOMAXPROCS(0) / evals
	if w < 1 {
		w = 1
	}
	return w
}

// Candidate is one evaluated design point.
type Candidate struct {
	Arch *tta.Architecture

	Area     float64 // NAND2-equivalent units (components + sockets + buses)
	Cycles   int     // kernel schedule length
	Clock    float64 // normalized clock period (critical path + bus delay)
	ExecTime float64 // Cycles * reps * Clock
	TestCost int     // equation (14)
	FullScan int     // full-scan baseline for the same components

	Feasible bool
	Reason   string // why infeasible

	Spills int

	// Energy is the estimated switched-capacitance + leakage per
	// application run (0 unless the exploration carries an energy model).
	Energy float64

	// Degraded marks a candidate whose test cost rests on the analytical
	// SCOAP bound instead of measured ATPG patterns — the annotator's
	// budget ran out (see testcost.Annotator.ATPGDeadline). Degraded
	// test costs are pessimistic upper bounds; SelectionSpec's
	// DegradedPolicy controls whether such points may win the selection.
	Degraded bool
}

// Coords returns the (area, time, test) vector.
func (c *Candidate) Coords() []float64 {
	return []float64{c.Area, c.ExecTime, float64(c.TestCost)}
}

// Result is a completed exploration.
type Result struct {
	Config     Config
	Candidates []Candidate

	// Feasible indexes candidates that scheduled successfully.
	Feasible []int
	// Front2D/Front3D index into Candidates: the area/time front
	// (figure 2) and the area/time/test front (figure 8).
	Front2D []int
	Front3D []int
	// Selected indexes Candidates: the minimal-equal-weight-Euclid-norm
	// member of the 3-D front (figure 9).
	Selected int
	// Verified reports that the selected candidate's schedule executed
	// correctly on the cycle-accurate simulator (Config.VerifySelected).
	Verified bool
}

// ExploreContext runs the full exploration under ctx. Cancelling the
// context (or exceeding its deadline) stops the candidate evaluations —
// including in-flight scheduling and gate-level ATPG runs — promptly and
// with no leaked goroutine; a panicking or failing candidate is isolated
// to its own slot while the rest of the sweep continues. Whenever some
// candidates finished and others did not (cancellation, per-candidate
// errors, recovered panics), the result is still returned: fronts and
// selection are computed over the evaluated candidates, and the error is
// a *PartialError describing the holes, unwrapping to ctx.Err() for a
// timeout so callers can tell "ran out of time" from "hit a bug". Only a
// configuration error or an exploration with nothing usable returns a
// nil result. When cfg.Obs is set, the run is fully instrumented (see
// Config.Obs).
func ExploreContext(ctx context.Context, cfg Config) (*Result, error) {
	em := newEmitter(cfg.EventSink)
	nEvents := &atomic.Int64{}
	total := 0
	// Every exploration ends its typed stream with exactly one "done"
	// event, whatever the exit path — consumers (Config.Events, the
	// daemon's stream endpoint) key their termination on it.
	defer func() {
		em.emit(Event{Kind: EventDone, N: int(nEvents.Load()), Total: total})
	}()
	if err := cfg.fillDefaults(); err != nil {
		// No evaluation ran; still publish the gauge so every exit path
		// leaves "dse.worker.utilization" set.
		cfg.Obs.Gauge("dse.worker.utilization").Set(0)
		return nil, err
	}
	reg := cfg.Obs
	// Degraded-annotation and warning events surface through the obs
	// stream (they originate below dse); bridge them into the typed
	// stream for this run only.
	defer em.bridgeObs(reg)()
	cfg.Checkpoint.bind(reg, cfg.Inject)
	root := reg.StartSpan("dse")
	defer root.End()
	res := &Result{Config: cfg, Selected: -1}

	var listDirs []string
	if cfg.Checkpoint != nil {
		listDirs = []string{filepath.Dir(cfg.Checkpoint.path)}
	}
	archs, err := produceArchs(ctx, &cfg, root, listDirs)
	if err != nil {
		cfg.Obs.Gauge("dse.worker.utilization").Set(0)
		return nil, err
	}
	total = len(archs)
	reg.Counter("dse.candidates.total").Add(int64(len(archs)))

	// A shard run evaluates only its contiguous slice of the list.
	// Candidate production above is a pure function of the config, so
	// every shard (and the merge) holds the same list with the same
	// global indices — no index remapping anywhere.
	lo, hi := 0, len(archs)
	if cfg.Shard != nil {
		if cfg.Checkpoint == nil {
			cfg.Obs.Gauge("dse.worker.utilization").Set(0)
			return nil, fmt.Errorf("dse: a shard run requires a Checkpoint (the shard's product is its checkpoint file)")
		}
		lo, hi = shardBounds(len(archs), cfg.Shard.Count, cfg.Shard.Index)
		cfg.Checkpoint.setShard(checkpointShard{
			Shards: cfg.Shard.Count, Index: cfg.Shard.Index, Lo: lo, Hi: hi, Total: len(archs),
		})
	}

	errs := runEvaluations(ctx, &cfg, root, archs, res, em, nEvents, lo, hi)
	partial := partialErrorFor(ctx, res, errs, lo, hi)
	if hit, miss := reg.Counter("testcost.cache.hit").Value(), reg.Counter("testcost.cache.miss").Value(); hit+miss > 0 {
		reg.Gauge("testcost.cache.hit_rate").Set(float64(hit) / float64(hit+miss))
	}

	if cfg.Shard != nil {
		// Fronts and selection need the whole picture; a shard stops at
		// its checkpoint and lets MergeExploreContext compute them once.
		if partial != nil {
			return res, partial
		}
		return res, nil
	}

	paretoSp := root.Child("pareto")
	defer paretoSp.End()
	var pts2, pts3 []pareto.Point
	for i := range res.Candidates {
		c := &res.Candidates[i]
		// Fronts are built over candidates that evaluated cleanly:
		// error'd slots may carry a half-filled evaluation, and
		// never-started slots (cancelled feed) are zero values.
		if !c.Feasible || errs[i] != nil || c.Arch == nil {
			continue
		}
		res.Feasible = append(res.Feasible, i)
		pts2 = append(pts2, pareto.Point{ID: i, Coords: []float64{c.Area, c.ExecTime}})
		pts3 = append(pts3, pareto.Point{ID: i, Coords: c.Coords()})
	}
	if len(pts2) == 0 {
		if partial != nil {
			return res, partial
		}
		return res, fmt.Errorf("dse: no feasible candidate in the explored space")
	}
	for _, pi := range pareto.Front(pts2) {
		res.Front2D = append(res.Front2D, pts2[pi].ID)
	}
	for _, pi := range pareto.Front(pts3) {
		res.Front3D = append(res.Front3D, pts3[pi].ID)
	}
	sort.Ints(res.Front2D)
	sort.Ints(res.Front3D)

	// Selection (figure 9): equal-weight Euclidean norm over the 3-D
	// front members.
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
	if partial != nil {
		return res, partial
	}
	return res, nil
}

// produceArchs builds the candidate list — exhaustive enumeration by
// default, the guided GA screen's survivors when Search is set. It is a
// pure function of the config (the GA draws from a control-thread-only
// rng and screens with the pure bound tier), which is what lets shard
// workers and the merge agree on one list with the same global indices.
// The screen is the costly part, so a guided search with list
// directories reads a candidate list persisted there by an earlier run
// instead of screening again (see searchSurvivors).
func produceArchs(ctx context.Context, cfg *Config, root *obs.Span, listDirs []string) ([]*tta.Architecture, error) {
	if cfg.Search != nil {
		spec := *cfg.Search
		if err := spec.fillDefaults(cfg.Seed); err != nil {
			return nil, err
		}
		searchSp := root.Child("search")
		survivors, err := searchSurvivors(ctx, cfg, searchSp, spec, listDirs)
		searchSp.End()
		if err != nil {
			return nil, err
		}
		archs := make([]*tta.Architecture, len(survivors))
		for i := range survivors {
			archs[i] = survivors[i].arch(cfg.Width, i)
		}
		return archs, nil
	}
	enumSp := root.Child("enumerate")
	defer enumSp.End()
	var archs []*tta.Architecture
	id := 0
	for _, buses := range cfg.Buses {
		for _, nALU := range cfg.ALUCounts {
			for _, nCMP := range cfg.CMPCounts {
				for rfi, rfs := range cfg.RFSets {
					for _, strat := range cfg.Assigns {
						archs = append(archs, buildArch(cfg.Width, buses, nALU, nCMP, rfs, strat, id, rfi))
						id++
					}
				}
			}
		}
	}
	return archs, nil
}

// partialErrorFor tallies the holes an evaluation sweep left behind over
// its [lo, hi) slice and builds the *PartialError describing them — nil
// when every candidate of the slice evaluated cleanly.
func partialErrorFor(ctx context.Context, res *Result, errs []error, lo, hi int) *PartialError {
	evaluated, panics := 0, 0
	var errMap map[int]error
	for i := lo; i < hi; i++ {
		err := errs[i]
		switch {
		case err != nil:
			if errMap == nil {
				errMap = make(map[int]error)
			}
			errMap[i] = err
			var pe *EvalPanicError
			if errors.As(err, &pe) {
				panics++
			}
		case res.Candidates[i].Arch != nil:
			evaluated++
		}
	}
	if errMap == nil && evaluated == hi-lo && ctx.Err() == nil {
		return nil
	}
	cause := ctx.Err()
	if cause == nil {
		cause = firstErr(errMap)
	}
	if cause == nil {
		// No context error and no per-candidate error, yet holes remain —
		// defensive; the feed loop only skips candidates on ctx.Done().
		cause = fmt.Errorf("dse: %d candidates never evaluated", hi-lo-evaluated)
	}
	return &PartialError{
		Total:     hi - lo,
		Evaluated: evaluated,
		Panics:    panics,
		Errs:      errMap,
		Cause:     cause,
	}
}

// runEvaluations evaluates the [lo, hi) slice of the candidate list over
// a bounded worker pool, filling the matching res.Candidates slots
// (indexed, so ordering is deterministic at any parallelism) and
// returning the per-candidate errors. An unsharded run passes the whole
// range; a shard run its own slice — events always carry the global
// index and total, so downstream consumers never remap. Evaluations
// recorded in cfg.Checkpoint are restored instead of recomputed, and new
// completions are recorded back. A panicking evaluation is recovered
// into its own error slot (*EvalPanicError); the sweep continues. The
// "dse.worker.utilization" gauge is set on every exit path — including a
// cancelled context or a candidate error surfacing to the caller.
func runEvaluations(ctx context.Context, cfg *Config, root *obs.Span, archs []*tta.Architecture, res *Result, em *emitter, nEvents *atomic.Int64, lo, hi int) []error {
	reg := cfg.Obs
	res.Candidates = make([]Candidate, len(archs))
	errs := make([]error, len(archs))

	// Restore the finished prefix of an interrupted run before spinning
	// up workers: restored slots never enter the feed. Each restore is
	// announced on the typed stream (kind "restored"), so live-front
	// consumers of a resumed run see the full picture.
	restored := make([]bool, len(archs))
	nRestored := 0
	for i := lo; i < hi; i++ {
		arch := archs[i]
		if e, ok := cfg.Checkpoint.lookup(checkpointKey(arch)); ok {
			res.Candidates[i] = e.candidate(arch)
			restored[i] = true
			nRestored++
			em.emit(Event{
				Kind:      EventRestored,
				Msg:       candidateEventMsg(arch, &res.Candidates[i], nil),
				N:         nRestored,
				Total:     len(archs),
				Candidate: candidateUpdate(i, arch, &res.Candidates[i], nil),
			})
			nEvents.Add(1)
		}
	}
	if nRestored > 0 {
		reg.Counter("dse.checkpoint.restored").Add(int64(nRestored))
	}
	defer cfg.Checkpoint.Flush()

	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > hi-lo-nRestored {
		workers = hi - lo - nRestored
	}
	reg.Gauge("dse.workers").Set(float64(workers))
	memo := newSchedMemo()
	evalStart := time.Now()
	var busyNS, completed atomic.Int64
	completed.Store(int64(nRestored))
	defer func() {
		util := 0.0
		if wall := time.Since(evalStart); wall > 0 && workers > 0 {
			util = float64(busyNS.Load()) / (float64(wall.Nanoseconds()) * float64(workers))
		}
		reg.Gauge("dse.worker.utilization").Set(util)
	}()
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				sp := root.Child("evaluate")
				res.Candidates[i], errs[i] = safeEvaluate(ctx, cfg, archs[i], sp, memo, em)
				sp.End()
				busyNS.Add(int64(time.Since(t0)))
				if errs[i] == nil {
					if res.Candidates[i].Feasible {
						reg.Counter("dse.candidates.feasible").Inc()
					} else {
						reg.Counter("dse.candidates.infeasible").Inc()
					}
					cfg.Checkpoint.record(checkpointKey(archs[i]), &res.Candidates[i])
				}
				n := int(completed.Add(1))
				msg := candidateEventMsg(archs[i], &res.Candidates[i], errs[i])
				em.emit(Event{
					Kind:      EventCandidate,
					Msg:       msg,
					N:         n,
					Total:     len(archs),
					Candidate: candidateUpdate(i, archs[i], &res.Candidates[i], errs[i]),
				})
				nEvents.Add(1)
				reg.Emit(obs.Event{
					Kind:  "candidate",
					Msg:   msg,
					N:     n,
					Total: len(archs),
				})
			}
		}()
	}
feed:
	for i := lo; i < hi; i++ {
		if restored[i] {
			continue
		}
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	return errs
}

// safeEvaluate isolates one candidate evaluation: a panic anywhere under
// it (scheduler, annotator, ATPG, injected chaos) is recovered into a
// *EvalPanicError on that candidate's slot, counted on "dse.eval.panics"
// and emitted as a "panic" event carrying the stack — the rest of the
// sweep keeps running. The faultinject.DSEEval hit point fires here, so
// every injection mode (error, panic, cancel, sleep) exercises the same
// path real failures take.
func safeEvaluate(ctx context.Context, cfg *Config, arch *tta.Architecture, sp *obs.Span, memo *schedMemo, em *emitter) (cand Candidate, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := &EvalPanicError{Arch: arch.Name, Value: r, Stack: debug.Stack()}
			cand, err = Candidate{Arch: arch}, pe
			cfg.Obs.Counter("dse.eval.panics").Inc()
			msg := fmt.Sprintf("%v\n%s", pe, pe.Stack)
			em.emit(Event{Kind: EventPanic, Msg: msg})
			cfg.Obs.Emit(obs.Event{Kind: "panic", Msg: msg})
		}
	}()
	if err := cfg.Inject.Hit(faultinject.DSEEval); err != nil {
		return Candidate{Arch: arch}, err
	}
	return evaluate(ctx, cfg, arch, sp, memo)
}

// candidateEventMsg renders one progress-event line for a completed
// candidate evaluation.
func candidateEventMsg(arch *tta.Architecture, c *Candidate, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: error: %v", arch.Name, err)
	case !c.Feasible:
		return fmt.Sprintf("%s: infeasible (%s)", arch.Name, c.Reason)
	default:
		return fmt.Sprintf("%s: area %.0f, %d cycles, test %d", arch.Name, c.Area, c.Cycles, c.TestCost)
	}
}

// verifySelected cross-checks the selected candidate end to end: the
// workload is re-scheduled onto the winning architecture and the move
// program executed on the cycle-accurate simulator with reference
// verification of every transported value (inputs seeded to zero — the
// check is schedule correctness, not application output).
func verifySelected(ctx context.Context, cfg *Config, res *Result) error {
	arch := res.Candidates[res.Selected].Arch
	schedRes, err := sched.ScheduleContext(ctx, cfg.Workload, arch, sched.Options{Obs: cfg.Obs})
	if err != nil {
		return err
	}
	inputs := make([]uint64, cfg.Workload.NumInputs())
	_, err = sim.Run(schedRes, inputs, crypt.MemoryImage(), sim.Options{Verify: true, Obs: cfg.Obs})
	return err
}

// buildArch assembles one candidate architecture.
func buildArch(width, buses, nALU, nCMP int, rfs []RFSpec, strat tta.AssignStrategy, id, rfi int) *tta.Architecture {
	a := &tta.Architecture{
		Name:  fmt.Sprintf("c%03d_b%d_a%d_c%d_rf%d_%s", id, buses, nALU, nCMP, rfi, strat),
		Width: width,
		Buses: buses,
	}
	for i := 0; i < nALU; i++ {
		a.Components = append(a.Components, tta.NewFU(tta.ALU, fmt.Sprintf("ALU%d", i+1)))
	}
	for i := 0; i < nCMP; i++ {
		a.Components = append(a.Components, tta.NewFU(tta.CMP, fmt.Sprintf("CMP%d", i+1)))
	}
	for i, rf := range rfs {
		a.Components = append(a.Components, tta.NewRF(fmt.Sprintf("RF%d", i+1), rf.Regs, rf.In, rf.Out))
	}
	a.Components = append(a.Components,
		tta.NewFU(tta.LDST, "LD/ST"),
		tta.NewPC("PC"),
		tta.NewIMM("Immediate"),
	)
	tta.AssignPorts(a, strat)
	return a
}

// structEval is the structural (port-assignment-independent) part of a
// candidate evaluation: the scheduler never reads the port-to-bus
// assignment (only the bus count), and area, clock and energy depend only
// on the component mix — so the Assigns variants of one structure share
// all of it and recompute only CD and hence test cost.
type structEval struct {
	feasible bool
	reason   string
	cycles   int
	spills   int
	area     float64
	clock    float64
	energy   float64
}

// structKey is the structural signature a schedule memo entry is keyed
// by: width, bus count and the ordered component mix (kinds, ALU adder
// microarchitecture, register-file shapes) — everything that feeds the
// structural evaluation, and nothing of the port assignment.
func structKey(a *tta.Architecture) string {
	var b strings.Builder
	fmt.Fprintf(&b, "w%d/b%d", a.Width, a.Buses)
	for ci := range a.Components {
		c := &a.Components[ci]
		switch c.Kind {
		case tta.ALU:
			fmt.Fprintf(&b, "/alu:%s", c.Adder)
		case tta.RF:
			fmt.Fprintf(&b, "/rf:%dx%dw%dr", c.NumRegs, c.NumIn, c.NumOut)
		default:
			fmt.Fprintf(&b, "/%s", c.Kind)
		}
	}
	return b.String()
}

// schedMemo shares structural evaluations across the assign-strategy
// variants of one structure, single-flight per key: the first requester
// schedules, duplicates block only on their own structure's latch.
type schedMemo struct {
	mu sync.Mutex
	m  map[string]*schedMemoEntry
}

type schedMemoEntry struct {
	done chan struct{} // closed once val/err are set
	val  structEval
	err  error
}

func newSchedMemo() *schedMemo {
	return &schedMemo{m: make(map[string]*schedMemoEntry)}
}

// structEvalFn computes the structural part of a candidate evaluation —
// evalStructural (exact annotations) or evalStructuralBound (the guided
// search's cheap tier).
type structEvalFn func(context.Context, *Config, *tta.Architecture, *obs.Span) (structEval, error)

// get returns the structural evaluation for arch, computing it at most
// once per structural signature ("dse.sched.memo.hit"/".miss" count the
// reuse). sp is the requesting candidate's "evaluate" span; only the
// computing request records "sched"/"atpg" children under it.
func (m *schedMemo) get(ctx context.Context, cfg *Config, arch *tta.Architecture, sp *obs.Span) (structEval, error) {
	return m.getWith(ctx, cfg, arch, sp, evalStructural)
}

// getWith is get with a pluggable structural evaluator. One memo
// instance must stick to one evaluator — the full and cheap tiers use
// separate memos, so a key never mixes fidelities.
func (m *schedMemo) getWith(ctx context.Context, cfg *Config, arch *tta.Architecture, sp *obs.Span, fn structEvalFn) (structEval, error) {
	key := structKey(arch)
	m.mu.Lock()
	e, ok := m.m[key]
	if ok {
		m.mu.Unlock()
		cfg.Obs.Counter("dse.sched.memo.hit").Inc()
		select {
		case <-e.done:
			return e.val, e.err
		case <-ctx.Done():
			return structEval{}, ctx.Err()
		}
	}
	e = &schedMemoEntry{done: make(chan struct{})}
	m.m[key] = e
	m.mu.Unlock()
	cfg.Obs.Counter("dse.sched.memo.miss").Inc()
	// The latch must settle even if the structural evaluation panics:
	// variants of the same structure are blocked on e.done, and a leader
	// that dies without closing it would strand them forever. The panic
	// itself still propagates (safeEvaluate isolates it to the leader's
	// candidate); the waiters get an ordinary error.
	defer func() {
		if r := recover(); r != nil {
			e.err = fmt.Errorf("dse: structural evaluation of %s panicked: %v", arch.Name, r)
			close(e.done)
			panic(r)
		}
	}()
	e.val, e.err = fn(ctx, cfg, arch, sp)
	close(e.done)
	return e.val, e.err
}

// evalStructural schedules the kernel and derives area, clock and energy
// for one structure — the memoized part of evaluate.
func evalStructural(ctx context.Context, cfg *Config, arch *tta.Architecture, sp *obs.Span) (structEval, error) {
	return evalStructuralWith(ctx, cfg, arch, sp, cfg.Annotator.AreaDelayContext)
}

// evalStructuralBound is evalStructural on the annotator's cheap tier:
// identical scheduling, area and clock (both tiers measure them from the
// netlist), but no gate-level ATPG behind the annotation — the guided
// search screens generations with it.
func evalStructuralBound(ctx context.Context, cfg *Config, arch *tta.Architecture, sp *obs.Span) (structEval, error) {
	return evalStructuralWith(ctx, cfg, arch, sp, cfg.Annotator.AreaDelayBoundContext)
}

func evalStructuralWith(ctx context.Context, cfg *Config, arch *tta.Architecture, sp *obs.Span, areaDelay func(context.Context, *tta.Component) (float64, float64, error)) (structEval, error) {
	// Throughput axis: schedule the kernel. Only the energy model walks
	// the move program; every other evaluation needs just the schedule's
	// cost.
	schedSp := sp.Child("sched")
	var schedRes *sched.Result
	var sum sched.Summary
	var err error
	opts := sched.Options{Obs: cfg.Obs}
	if cfg.EnergyModel != nil {
		if schedRes, err = sched.ScheduleContext(ctx, cfg.Workload, arch, opts); err == nil {
			sum = schedRes.Summary()
		}
	} else {
		sum, err = sched.SummarizeContext(ctx, cfg.Workload, arch, opts)
	}
	schedSp.End()
	if err != nil {
		if ctx.Err() != nil {
			return structEval{}, ctx.Err()
		}
		return structEval{feasible: false, reason: err.Error()}, nil
	}
	se := structEval{
		feasible: true,
		cycles:   sum.Cycles,
		spills:   sum.Spills,
	}

	// Area and clock axes from the gate-level library.
	atpgSp := sp.Child("atpg")
	defer atpgSp.End()
	area := 0.0
	clock := cfg.BusDelay
	for ci := range arch.Components {
		ar, dl, err := areaDelay(ctx, &arch.Components[ci])
		if err != nil {
			return structEval{}, err
		}
		area += ar
		if dl+cfg.BusDelay > clock {
			clock = dl + cfg.BusDelay
		}
	}
	inA, outA, err := cfg.Annotator.SocketArea()
	if err != nil {
		return structEval{}, err
	}
	for ci := range arch.Components {
		c := &arch.Components[ci]
		nIn := 0
		for _, p := range c.Ports {
			if p.Role.IsInput() {
				nIn++
			}
		}
		area += float64(nIn)*inA + float64(len(c.Ports)-nIn)*outA
	}
	area += float64(arch.Buses) * float64(arch.Width) * cfg.BusAreaPerBit
	se.area = area
	se.clock = clock
	if cfg.EnergyModel != nil {
		est := cfg.EnergyModel.ScheduleEnergy(schedRes, area)
		se.energy = est.Total * float64(cfg.WorkloadReps)
	}
	return se, nil
}

// evaluate computes all three axes for one candidate. sp (nil allowed)
// is the candidate's "evaluate" span; scheduling and gate-level
// annotation time are recorded under its "sched" and "atpg" children.
// The structural part (cycles, area, clock, energy) comes from the shared
// memo; only the assignment-dependent test cost is computed per variant.
func evaluate(ctx context.Context, cfg *Config, arch *tta.Architecture, sp *obs.Span, memo *schedMemo) (Candidate, error) {
	cand := Candidate{Arch: arch}
	se, err := memo.get(ctx, cfg, arch, sp)
	if err != nil {
		return cand, err
	}
	cand.Feasible = se.feasible
	cand.Reason = se.reason
	if !se.feasible {
		return cand, nil
	}
	cand.Cycles = se.cycles
	cand.Spills = se.spills
	cand.Area = se.area
	cand.Clock = se.clock
	cand.ExecTime = float64(se.cycles) * float64(cfg.WorkloadReps) * se.clock
	cand.Energy = se.energy

	// Test axis: equation (14) — CD depends on the port assignment, so
	// this is never memoized across variants (the annotator's own
	// per-component cache still applies).
	cost, err := cfg.Annotator.EvaluateContext(ctx, arch)
	if err != nil {
		return cand, err
	}
	cand.TestCost = cost.Total
	cand.FullScan = cost.FullScanTotal
	cand.Degraded = cost.Degraded
	return cand, nil
}

// ProjectionPreserved checks the paper's figure-8 claim: projecting the
// 3-D front back onto the area/time plane loses no point of the 2-D front
// ("the first projection of the 3D curve in the area-execution-time plane
// is still the curve from figure 2"). The comparison is by coordinates:
// when several candidates tie in area and time (e.g. port-assignment
// variants), the 3-D front keeps the test-cheapest one, which still covers
// the 2-D point.
func (r *Result) ProjectionPreserved() bool {
	const eps = 1e-9
	for _, i := range r.Front2D {
		a := &r.Candidates[i]
		covered := false
		for _, j := range r.Front3D {
			b := &r.Candidates[j]
			if relDiff(a.Area, b.Area) < eps && relDiff(a.ExecTime, b.ExecTime) < eps {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// TestCostSpread reports the widest (min, max) test-cost pair among
// feasible candidates whose area and execution-time coordinates lie within
// relative eps of each other — the paper's observation that architectures
// close to each other on the 2-D Pareto curve may still differ strongly in
// test cost (figure 8), which is what makes the third axis worth adding.
func (r *Result) TestCostSpread(eps float64) (lo, hi int, found bool) {
	bestSpread := -1
	for ai, i := range r.Feasible {
		for _, j := range r.Feasible[ai+1:] {
			a, b := &r.Candidates[i], &r.Candidates[j]
			if relDiff(a.Area, b.Area) >= eps || relDiff(a.ExecTime, b.ExecTime) >= eps {
				continue
			}
			l, h := a.TestCost, b.TestCost
			if l > h {
				l, h = h, l
			}
			if h-l > bestSpread {
				bestSpread = h - l
				lo, hi, found = l, h, true
			}
		}
	}
	return lo, hi, found
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	return d / m
}
