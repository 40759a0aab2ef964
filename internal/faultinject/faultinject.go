// Package faultinject provides deterministic, seeded fault injection for
// the exploration engine's chaos tests: named injection points are
// compiled into the hot paths of the DSE worker loop, the gate-level ATPG
// pattern generation and the warm-start cache IO, and stay free when
// disabled — a nil *Injector answers every Hit with nil without locking
// or allocation.
//
// Injection is deterministic in the count domain: a plan fires on every
// Nth hit of its point (optionally probabilistically, driven by the
// injector's seed), up to a fire limit. Given the same sequence of hits a
// plan makes the same decisions, so single-threaded chaos runs replay
// exactly; under concurrency the per-point hit order may vary, but the
// number of fires for a given number of hits does not — which is what the
// chaos suite asserts on (every scenario ends in a usable partial
// result), not wall-clock schedules.
//
// Design rules mirror internal/obs: no global state (injectors travel
// through the existing config structs), nil-safety everywhere, and the
// production build pays one pointer test per instrumented site.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names one injection site compiled into the engine.
type Point string

// The engine's injection points.
const (
	// DSEEval fires at the top of every candidate evaluation in the DSE
	// worker pool (internal/dse.runEvaluations).
	DSEEval Point = "dse.eval"
	// ATPGPattern fires once per fault in the deterministic PODEM merge
	// loop (internal/atpg.podemTopUp) — the natural place to make an ATPG
	// run slow or blow up mid-generation.
	ATPGPattern Point = "atpg.pattern"
	// CacheRead fires at the top of the warm-start cache Load
	// (internal/testcost.(*Annotator).Load).
	CacheRead Point = "testcost.cache.read"
	// CacheWrite fires at the top of the warm-start cache Save
	// (internal/testcost.(*Annotator).Save).
	CacheWrite Point = "testcost.cache.write"
	// Checkpoint fires on every checkpoint file write
	// (internal/dse.(*Checkpoint).flush).
	Checkpoint Point = "dse.checkpoint.write"
	// CandidateList fires on every guided-search candidate list write
	// (internal/dse.searchSurvivors).
	CandidateList Point = "dse.candidates.write"
	// ShardWorker fires once at the top of a shard worker process's run
	// (internal/service.runShardWorker), before the worker has emitted
	// anything — the place to make a whole worker hang (ModeStall) or die
	// at birth, exercising the coordinator's supervision.
	ShardWorker Point = "shard.worker"
)

// Mode selects what a firing plan does to the instrumented call.
type Mode int

const (
	// ModeError makes Hit return the plan's Err (ErrInjected when unset).
	ModeError Mode = iota
	// ModePanic makes Hit panic with a *PanicValue — exercising the
	// engine's recover paths.
	ModePanic
	// ModeCancel makes Hit return context.Canceled, imitating a caller
	// whose context died mid-call.
	ModeCancel
	// ModeSleep makes Hit block for the plan's Delay and then succeed —
	// the "slow ATPG" scenario that exercises wall-clock budgets.
	ModeSleep
	// ModeTornWrite makes Hit return a *TornWriteError: durability-aware
	// write paths (durable.WriteFileAtomic) react by persisting only the
	// plan's Frac prefix of the payload to the final path and failing —
	// simulating a torn write that landed on disk.
	ModeTornWrite
	// ModeStall makes Hit block until the injector's ReleaseStalls is
	// called (in cross-process use: until the coordinator kills the
	// process) — the "hung worker" scenario behind stall supervision.
	ModeStall
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeCancel:
		return "cancel"
	case ModeSleep:
		return "sleep"
	case ModeTornWrite:
		return "torn"
	case ModeStall:
		return "stall"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ErrInjected is the default error returned by a firing ModeError plan.
var ErrInjected = errors.New("faultinject: injected error")

// PanicValue is what a firing ModePanic plan panics with, so recover
// sites (and tests) can tell an injected panic from a genuine one.
type PanicValue struct {
	Point Point
	N     int64 // 1-based fire ordinal
}

func (p *PanicValue) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (fire #%d)", p.Point, p.N)
}

// TornWriteError is what a firing ModeTornWrite plan returns from Hit.
// Durability-aware writers (durable.WriteFileAtomic) detect it with
// errors.As and persist only the Frac prefix of their payload to the
// final destination before failing, so the next loader faces a genuinely
// torn artifact.
type TornWriteError struct {
	Point Point
	N     int64   // 1-based fire ordinal
	Frac  float64 // prefix fraction to persist, in (0, 1)
}

func (e *TornWriteError) Error() string {
	return fmt.Sprintf("faultinject: injected torn write at %s (fire #%d, %.0f%% prefix persisted)",
		e.Point, e.N, e.Frac*100)
}

// Plan configures one injection point. The zero value fires ModeError
// with ErrInjected on every hit, unlimited.
type Plan struct {
	Mode Mode
	// Every fires the plan on every Nth hit (1 = every hit). 0 means 1.
	Every int
	// Limit caps the number of fires (0 = unlimited).
	Limit int
	// Prob, when in (0, 1), gates each otherwise-eligible hit on a draw
	// from the injector's seeded stream; 0 (or >= 1) always fires.
	Prob float64
	// Delay is the sleep duration of ModeSleep.
	Delay time.Duration
	// Frac is the persisted prefix fraction of ModeTornWrite; values
	// outside (0, 1) mean the default 0.5.
	Frac float64
	// Err overrides the returned error of ModeError.
	Err error
}

type plan struct {
	Plan
	hits  int64
	fires int64
}

// Injector owns the armed plans of one chaos run. Construct with New;
// a nil *Injector is a valid no-op for every method.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	plans map[Point]*plan

	stallOnce sync.Once
	stallCh   chan struct{} // closed by ReleaseStalls; ModeStall blocks on it
}

// New returns an injector whose probabilistic decisions are driven by
// seed (deterministic per hit order).
func New(seed int64) *Injector {
	return &Injector{
		rng:     rand.New(rand.NewSource(seed)),
		plans:   make(map[Point]*plan),
		stallCh: make(chan struct{}),
	}
}

// Arm installs (or replaces) the plan for a point. Arming resets the
// point's hit and fire counts.
func (i *Injector) Arm(p Point, pl Plan) {
	if i == nil {
		return
	}
	if pl.Every <= 0 {
		pl.Every = 1
	}
	i.mu.Lock()
	i.plans[p] = &plan{Plan: pl}
	i.mu.Unlock()
}

// Disarm removes the plan for a point.
func (i *Injector) Disarm(p Point) {
	if i == nil {
		return
	}
	i.mu.Lock()
	delete(i.plans, p)
	i.mu.Unlock()
}

// Hit reports one pass through an injection point and acts out the armed
// plan when it fires: returning an error (ModeError/ModeCancel),
// panicking (ModePanic) or sleeping first (ModeSleep). A nil injector,
// an unarmed point and a non-firing hit all return nil.
func (i *Injector) Hit(p Point) error {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	pl, ok := i.plans[p]
	if !ok {
		i.mu.Unlock()
		return nil
	}
	pl.hits++
	fire := pl.hits%int64(pl.Every) == 0
	if fire && pl.Limit > 0 && pl.fires >= int64(pl.Limit) {
		fire = false
	}
	if fire && pl.Prob > 0 && pl.Prob < 1 {
		fire = i.rng.Float64() < pl.Prob
	}
	if !fire {
		i.mu.Unlock()
		return nil
	}
	pl.fires++
	n := pl.fires
	mode, delay, frac, err := pl.Mode, pl.Delay, pl.Frac, pl.Err
	i.mu.Unlock()

	switch mode {
	case ModePanic:
		panic(&PanicValue{Point: p, N: n})
	case ModeCancel:
		return context.Canceled
	case ModeSleep:
		time.Sleep(delay)
		return nil
	case ModeTornWrite:
		if frac <= 0 || frac >= 1 {
			frac = 0.5
		}
		return &TornWriteError{Point: p, N: n, Frac: frac}
	case ModeStall:
		<-i.stallCh
		return fmt.Errorf("%s: %w", p, ErrInjected)
	default:
		if err == nil {
			err = ErrInjected
		}
		return fmt.Errorf("%s: %w", p, err)
	}
}

// ReleaseStalls unblocks every Hit currently (and subsequently) parked in
// a ModeStall plan — the in-process escape hatch for tests. Cross-process
// stalls need no release: the supervising coordinator kills the stalled
// worker. Idempotent; safe on a nil injector.
func (i *Injector) ReleaseStalls() {
	if i == nil {
		return
	}
	i.stallOnce.Do(func() { close(i.stallCh) })
}

// Fires returns how many times the point's plan has fired (0 for a nil
// injector or an unarmed point) — the chaos tests' ground truth that a
// scenario actually exercised its failure path.
func (i *Injector) Fires(p Point) int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if pl, ok := i.plans[p]; ok {
		return pl.fires
	}
	return 0
}

// Hits returns how many times the point has been passed (0 for a nil
// injector or an unarmed point).
func (i *Injector) Hits(p Point) int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if pl, ok := i.plans[p]; ok {
		return pl.hits
	}
	return 0
}

// ParsePlans parses the textual injection spec used to arm chaos across
// process boundaries (a shard worker reads it from its environment, since
// live *Injector values cannot cross an exec). The grammar:
//
//	spec    := plan (";" plan)*
//	plan    := point "=" mode (":" opt)*
//	mode    := "error" | "panic" | "cancel" | "sleep" | "torn" | "stall"
//	opt     := ("every"|"limit") "=" int
//	         | "prob"  "=" float
//	         | "frac"  "=" float
//	         | "delay" "=" goDuration
//
// Example: "dse.checkpoint.write=torn:limit=1;shard.worker=stall".
// Unknown modes, options or malformed values are errors — a chaos drill
// that silently arms nothing would pass vacuously.
func ParsePlans(spec string) (map[Point]Plan, error) {
	out := make(map[Point]Plan)
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		point, rest, ok := strings.Cut(raw, "=")
		if !ok || point == "" {
			return nil, fmt.Errorf("faultinject: plan %q: want point=mode[:opt...]", raw)
		}
		parts := strings.Split(rest, ":")
		var pl Plan
		switch parts[0] {
		case "error":
			pl.Mode = ModeError
		case "panic":
			pl.Mode = ModePanic
		case "cancel":
			pl.Mode = ModeCancel
		case "sleep":
			pl.Mode = ModeSleep
		case "torn":
			pl.Mode = ModeTornWrite
		case "stall":
			pl.Mode = ModeStall
		default:
			return nil, fmt.Errorf("faultinject: plan %q: unknown mode %q", raw, parts[0])
		}
		for _, opt := range parts[1:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: plan %q: option %q is not key=value", raw, opt)
			}
			var err error
			switch k {
			case "every":
				pl.Every, err = strconv.Atoi(v)
			case "limit":
				pl.Limit, err = strconv.Atoi(v)
			case "prob":
				pl.Prob, err = strconv.ParseFloat(v, 64)
			case "frac":
				pl.Frac, err = strconv.ParseFloat(v, 64)
			case "delay":
				pl.Delay, err = time.ParseDuration(v)
			default:
				return nil, fmt.Errorf("faultinject: plan %q: unknown option %q", raw, k)
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: plan %q: option %q: %v", raw, opt, err)
			}
		}
		out[Point(point)] = pl
	}
	return out, nil
}

// ArmSpec parses spec (see ParsePlans) and arms every plan it names.
// Safe on a nil injector only when the spec is empty.
func (i *Injector) ArmSpec(spec string) error {
	plans, err := ParsePlans(spec)
	if err != nil {
		return err
	}
	if len(plans) == 0 {
		return nil
	}
	if i == nil {
		return errors.New("faultinject: arming a nil injector")
	}
	for p, pl := range plans {
		i.Arm(p, pl)
	}
	return nil
}
