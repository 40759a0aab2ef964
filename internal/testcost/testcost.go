// Package testcost implements the paper's analytical test cost model
// (section 3): per-component functional test costs f_tfu (eq. 11) and
// f_trf (eq. 12), the scan-based socket cost f_ts (eq. 13), and the
// architecture total (eq. 14). Pattern counts n_p are back-annotated from
// the gate-level component library — ATPG stuck-at patterns for function
// units (internal/atpg) and march tests for the multi-port register files
// (internal/march) — exactly mirroring the paper's flow, where components
// are pre-designed to gate level and their pattern counts fed back into
// the exploration.
package testcost

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/atpg"
	"repro/internal/faultinject"
	"repro/internal/gatelib"
	"repro/internal/march"
	"repro/internal/obs"
	"repro/internal/scan"
	"repro/internal/tta"
)

// SocketIDBits is the move-destination ID field width used for the socket
// decode logic of every generated socket.
const SocketIDBits = 6

// ComponentCost is one row of the paper's Table 1.
type ComponentCost struct {
	Name string
	Kind tta.Kind

	NP    int // stuck-at ATPG patterns (FUs) or march patterns (RFs)
	CD    int // cycles per functionally applied pattern (eqs. 9-10)
	NConn int
	NL    int // scan-chain length: component + socket flip-flops

	FTfu int // eq. (11), function units only
	FTrf int // eq. (12), register files only
	FTs  int // eq. (13), socket scan cost

	FullScanCycles int // baseline: all patterns through the scan chain
	FaultCoverage  float64

	// Excluded marks components that appear once in every architecture
	// (LD/ST, PC, Immediate) and therefore drop out of the comparison, as
	// in the paper.
	Excluded bool

	// Degraded marks a pattern count that is an analytical upper bound
	// (atpg.EstimateBound) rather than a converged ATPG measurement: the
	// component's budgeted ATPG run exhausted its wall-clock deadline
	// (Annotator.ATPGDeadline). Degraded costs are pessimistic, never
	// flattered — see DESIGN.md, "Degradation semantics".
	Degraded bool
}

// OurCycles is the component's total functional-approach test time:
// component patterns at CD cycles each plus the socket scan (the paper's
// "our approach" column, e.g. ALU 65 + 812 = 877).
func (c *ComponentCost) OurCycles() int {
	return c.FTfu + c.FTrf + c.FTs
}

// ArchCost aggregates the test cost of one architecture.
type ArchCost struct {
	Arch       *tta.Architecture
	Components []ComponentCost
	// Total is equation (14): sum of f_tfu, f_trf and f_ts over the
	// architecture-dependent datapath components.
	Total int
	// FullScanTotal is the corresponding full-scan baseline over the same
	// components.
	FullScanTotal int
	// Degraded reports that at least one cost-bearing (non-excluded)
	// component's pattern count is an analytical bound, not a converged
	// measurement — Total is then an upper bound on the true test cost.
	Degraded bool
}

// annotation caches the architecture-independent properties of a library
// component configuration.
type annotation struct {
	np       int
	nl       int // component flip-flops (without sockets)
	coverage float64
	scanNP   int // patterns used by the full-scan baseline
	area     float64
	delay    float64
	// degraded marks np/scanNP/coverage as analytical bounds (the
	// budgeted ATPG run did not converge); area and delay are always
	// measured from the netlist and stay exact.
	degraded bool
}

// Annotator back-annotates pattern counts from the gate-level library and
// evaluates the cost model for candidate architectures. It is safe for
// concurrent use: annotation-cache misses run their gate-level ATPG
// outside the annotator's lock, single-flight per key — distinct
// components annotate concurrently, while duplicate requests for a key
// already being annotated block only on that key's in-flight run.
type Annotator struct {
	Lib   *gatelib.Library
	Width int
	Seed  int64
	March march.Test

	// ATPGWorkers bounds the parallelism inside each gate-level ATPG run
	// behind a cache miss (atpg.Config.Workers): 0 = GOMAXPROCS,
	// 1 = serial. When the annotator is shared by several DSE evaluation
	// workers, set this to the per-evaluation share of the core budget so
	// the two levels do not oversubscribe (dse.Config does this
	// automatically). Results are identical at any setting.
	ATPGWorkers int

	// ATPGDeadline bounds the wall-clock time of each gate-level ATPG
	// run behind a cache miss (0 = unbounded). A run that exhausts the
	// budget degrades gracefully instead of failing: the component's
	// pattern count falls back to the analytical SCOAP-derived upper
	// bound (atpg.EstimateBound) and the annotation is marked degraded,
	// which propagates through ComponentCost/ArchCost into the DSE
	// candidate. Degraded annotations are never persisted to the
	// warm-start cache, so a later unbudgeted run re-measures them.
	ATPGDeadline time.Duration

	// Inject, when non-nil, enables this annotator's chaos points —
	// faultinject.CacheRead/CacheWrite around the warm-start cache IO —
	// and is forwarded to the gate-level ATPG runs (atpg.Config.Inject).
	Inject *faultinject.Injector

	// Obs, when non-nil, receives annotation-cache counters —
	// "testcost.cache.hit" (served from the completed cache),
	// "testcost.cache.miss" (ran ATPG; exactly one per distinct key),
	// "testcost.cache.inflight" (coalesced onto another goroutine's
	// in-flight run) and "testcost.cache.wait_ns" (nanoseconds spent
	// waiting on in-flight runs) — and is forwarded to the ATPG runs
	// behind cache misses. Set it before sharing the annotator across
	// goroutines.
	Obs *obs.Registry

	mu       sync.Mutex
	cache    map[string]annotation
	bounds   map[string]annotation // cheap-tier analytical bounds, keyed like cache
	inflight map[string]*inflightRun

	sockIn   annotation
	sockOut  annotation
	sockNP   int
	sockDone bool
	sockWarm bool // socket annotations were loaded from a warm-start cache
	once     sync.Once
	sockErr  error
}

// inflightRun is the latch duplicate requests for one key wait on while
// the first requester runs the ATPG.
type inflightRun struct {
	done chan struct{} // closed once an/err are set
	an   annotation
	err  error
}

// NewAnnotator builds an annotator over a fresh component library.
func NewAnnotator(width int, seed int64) *Annotator {
	return &Annotator{
		Lib:      gatelib.NewLibrary(),
		Width:    width,
		Seed:     seed,
		March:    march.MarchCMinus,
		cache:    make(map[string]annotation),
		bounds:   make(map[string]annotation),
		inflight: make(map[string]*inflightRun),
	}
}

func (a *Annotator) annotate(ctx context.Context, key string, gen func() (*gatelib.Component, error)) (annotation, error) {
	for {
		a.mu.Lock()
		if an, ok := a.cache[key]; ok {
			a.mu.Unlock()
			a.Obs.Counter("testcost.cache.hit").Inc()
			return an, nil
		}
		run, ok := a.inflight[key]
		if !ok {
			// This request leads: register the latch, then run the ATPG
			// outside the lock so other keys proceed concurrently.
			run = &inflightRun{done: make(chan struct{})}
			a.inflight[key] = run
			a.mu.Unlock()
			a.Obs.Counter("testcost.cache.miss").Inc()
			return a.lead(ctx, key, run, gen)
		}
		a.mu.Unlock()
		// Duplicate request: latch onto the in-flight run for this key.
		a.Obs.Counter("testcost.cache.inflight").Inc()
		wait := time.Now()
		select {
		case <-run.done:
			a.Obs.Counter("testcost.cache.wait_ns").Add(time.Since(wait).Nanoseconds())
			if run.err == nil {
				return run.an, nil
			}
			// The run this request latched onto failed — possibly with the
			// leader's context error. Retry: the failed entry is gone, so
			// this request either leads the retry or observes a fresh one.
			if ctx.Err() != nil {
				return annotation{}, ctx.Err()
			}
		case <-ctx.Done():
			a.Obs.Counter("testcost.cache.wait_ns").Add(time.Since(wait).Nanoseconds())
			return annotation{}, ctx.Err()
		}
	}
}

// lead runs the in-flight annotation as the single-flight leader and
// settles the latch on every exit path: success, error, or panic. A
// panicking annotation (a crashing library generator, or an injected
// chaos panic) must not strand the waiters — they receive the failure
// through the latch while the panic itself propagates to the leader's
// caller, where the DSE worker's recover isolates it to one candidate.
func (a *Annotator) lead(ctx context.Context, key string, run *inflightRun, gen func() (*gatelib.Component, error)) (an annotation, err error) {
	settled := false
	settle := func() {
		a.mu.Lock()
		if run.err == nil {
			a.cache[key] = run.an
		}
		delete(a.inflight, key)
		a.mu.Unlock()
		close(run.done)
		settled = true
	}
	defer func() {
		if r := recover(); r != nil {
			if !settled {
				run.err = fmt.Errorf("testcost: annotating %s panicked: %v", key, r)
				settle()
			}
			panic(r)
		}
	}()
	run.an, run.err = a.runAnnotation(ctx, gen)
	settle()
	return run.an, run.err
}

// runAnnotation generates the component and runs the gate-level ATPG — the
// expensive part of a cache miss, executed without holding the lock. When
// the budgeted run exhausts Annotator.ATPGDeadline, the measured pattern
// count is replaced by the analytical SCOAP bound and the annotation
// marked degraded: deterministic (a pure function of the netlist, however
// far the partial run got) and pessimistic (an upper bound, so degraded
// candidates are never flattered).
func (a *Annotator) runAnnotation(ctx context.Context, gen func() (*gatelib.Component, error)) (annotation, error) {
	comp, err := gen()
	if err != nil {
		return annotation{}, err
	}
	res, err := atpg.RunContext(ctx, comp.Seq, atpg.Config{
		Seed:     a.Seed,
		Workers:  a.ATPGWorkers,
		Deadline: a.ATPGDeadline,
		Obs:      a.Obs,
		Inject:   a.Inject,
	})
	if err != nil {
		return annotation{}, err
	}
	if res.DeadlineExceeded {
		b := atpg.EstimateBound(comp.Seq)
		a.Obs.Counter("testcost.degraded").Inc()
		a.Obs.Emit(obs.Event{
			Kind: "degraded",
			Msg: fmt.Sprintf("%s: ATPG deadline %v exhausted; using analytical bound np<=%d (measured %d patterns before expiry)",
				comp.Seq.Name, a.ATPGDeadline, b.Patterns, res.NumPatterns()),
		})
		return annotation{
			np:       b.Patterns,
			nl:       comp.SeqFFs(),
			coverage: b.Coverage(),
			scanNP:   b.Patterns,
			area:     comp.Seq.Area(),
			delay:    comp.Seq.CriticalPath(),
			degraded: true,
		}, nil
	}
	return annotation{
		np:       res.NumPatterns(),
		nl:       comp.SeqFFs(),
		coverage: res.Coverage(),
		scanNP:   res.NumPatterns(),
		area:     comp.Seq.Area(),
		delay:    comp.Seq.CriticalPath(),
	}, nil
}

// sockets lazily annotates the socket library elements (skipping the ATPG
// when a warm-start cache supplied them).
func (a *Annotator) sockets() error {
	a.once.Do(func() {
		if a.sockWarm {
			a.sockDone = true
			return
		}
		in, err := a.Lib.InputSocket(SocketIDBits)
		if err != nil {
			a.sockErr = err
			return
		}
		out, err := a.Lib.OutputSocket(SocketIDBits)
		if err != nil {
			a.sockErr = err
			return
		}
		// Sockets are small enough to always converge quickly, so they run
		// unbudgeted and under a background context — sync.Once makes a
		// first-caller cancellation sticky for every later evaluation, so
		// the socket ATPG must not be tied to one caller's ctx. With a
		// background context and no deadline the error is always nil.
		resIn, _ := atpg.RunContext(context.Background(), in.Seq, atpg.Config{Seed: a.Seed, Workers: a.ATPGWorkers, Obs: a.Obs})
		resOut, _ := atpg.RunContext(context.Background(), out.Seq, atpg.Config{Seed: a.Seed, Workers: a.ATPGWorkers, Obs: a.Obs})
		a.sockIn = annotation{np: resIn.NumPatterns(), nl: in.SeqFFs(), coverage: resIn.Coverage()}
		a.sockOut = annotation{np: resOut.NumPatterns(), nl: out.SeqFFs(), coverage: resOut.Coverage()}
		a.sockNP = resIn.NumPatterns()
		if resOut.NumPatterns() > a.sockNP {
			a.sockNP = resOut.NumPatterns()
		}
		a.sockDone = true
	})
	return a.sockErr
}

// socketFFs returns the flip-flop count of the sockets attached to a
// component (one input socket per input port, one output socket per
// output port).
func (a *Annotator) socketFFs(c *tta.Component) int {
	return len(c.InputPorts())*a.sockIn.nl + len(c.OutputPorts())*a.sockOut.nl
}

func ceilDiv(x, y int) int {
	if y <= 0 {
		return x
	}
	return (x + y - 1) / y
}

// componentKeyGen maps an architecture component to its library cache
// key and netlist generator — the single source of truth shared by the
// exact annotation path and the bound tier, so both tiers always agree
// on which library element a component resolves to.
func (a *Annotator) componentKeyGen(c *tta.Component) (string, func() (*gatelib.Component, error), error) {
	switch c.Kind {
	case tta.ALU:
		return fmt.Sprintf("alu/%d/%s", a.Width, c.Adder), func() (*gatelib.Component, error) {
			return a.Lib.ALU(gatelib.ALUConfig{Width: a.Width, Adder: c.Adder})
		}, nil
	case tta.CMP:
		return fmt.Sprintf("cmp/%d", a.Width), func() (*gatelib.Component, error) {
			return a.Lib.CMP(a.Width)
		}, nil
	case tta.RF:
		cfg := gatelib.RFConfig{Width: a.Width, NumRegs: c.NumRegs, NumIn: c.NumIn, NumOut: c.NumOut}
		return "rf/" + cfg.String(), func() (*gatelib.Component, error) {
			return a.Lib.RF(cfg)
		}, nil
	case tta.LDST:
		return fmt.Sprintf("ldst/%d", a.Width), func() (*gatelib.Component, error) {
			return a.Lib.LDST(a.Width)
		}, nil
	case tta.PC:
		return fmt.Sprintf("pc/%d", a.Width), func() (*gatelib.Component, error) {
			return a.Lib.PC(a.Width)
		}, nil
	case tta.IMM:
		return fmt.Sprintf("imm/%d", a.Width), func() (*gatelib.Component, error) {
			return a.Lib.IMM(a.Width)
		}, nil
	default:
		return "", nil, fmt.Errorf("testcost: unknown component kind %v", c.Kind)
	}
}

// marchOverride applies the register-file pattern-count convention: the
// functional RF test uses march patterns, not the scan-view ATPG set
// (which only feeds the full-scan baseline).
func (a *Annotator) marchOverride(c *tta.Component, an annotation) annotation {
	if c.Kind == tta.RF {
		an.np = march.MultiPortPatternCount(a.March, c.NumRegs, c.NumIn, c.NumOut)
	}
	return an
}

// componentAnnotation fetches the library annotation for an architecture
// component.
func (a *Annotator) componentAnnotation(ctx context.Context, c *tta.Component) (annotation, error) {
	key, gen, err := a.componentKeyGen(c)
	if err != nil {
		return annotation{}, err
	}
	an, err := a.annotate(ctx, key, gen)
	if err != nil {
		return annotation{}, err
	}
	return a.marchOverride(c, an), nil
}

// EvaluateContext computes the full Table-1-style cost breakdown and the
// eq. (14) total for an architecture. Ports must be assigned to buses.
// The gate-level ATPG runs behind annotation-cache misses poll ctx and
// abort when it is done.
func (a *Annotator) EvaluateContext(ctx context.Context, arch *tta.Architecture) (*ArchCost, error) {
	return a.evaluateWith(ctx, arch, a.componentAnnotation)
}

// evaluateWith runs the eq. (14) cost assembly over an architecture with
// a pluggable per-component annotation source (exact or bound tier).
func (a *Annotator) evaluateWith(ctx context.Context, arch *tta.Architecture, fetch func(context.Context, *tta.Component) (annotation, error)) (*ArchCost, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if !arch.Assigned() {
		return nil, fmt.Errorf("testcost: architecture %q has unassigned ports", arch.Name)
	}
	if err := a.sockets(); err != nil {
		return nil, err
	}
	out := &ArchCost{Arch: arch}
	for ci := range arch.Components {
		c := &arch.Components[ci]
		an, err := fetch(ctx, c)
		if err != nil {
			return nil, err
		}
		cc := ComponentCost{
			Name:          c.Name,
			Kind:          c.Kind,
			NP:            an.np,
			CD:            c.CD(),
			NConn:         c.NumConnectors(),
			NL:            an.nl + a.socketFFs(c),
			FaultCoverage: an.coverage,
			Degraded:      an.degraded,
		}
		cc.FullScanCycles = scan.TestCycles(an.scanNP, cc.NL)
		switch c.Kind {
		case tta.ALU, tta.CMP:
			// Equation (11): n_p * CD * ceil(n_conn / n_b).
			cc.FTfu = an.np * cc.CD * ceilDiv(cc.NConn, arch.Buses)
			cc.FTs = a.sockNP * cc.NL
		case tta.RF:
			cc.FTrf = rfCost(an.np, cc.CD, c.NumIn, c.NumOut, arch.Buses)
			cc.FTs = a.sockNP * cc.NL
		default:
			// LD/ST, PC and Immediate appear once in every candidate and
			// cancel out of the comparison (paper, section 4).
			cc.Excluded = true
		}
		out.Components = append(out.Components, cc)
		if !cc.Excluded {
			out.Total += cc.OurCycles()
			out.FullScanTotal += cc.FullScanCycles
			if cc.Degraded {
				out.Degraded = true
			}
		}
	}
	return out, nil
}

// rfCost is equation (12): march patterns stream through parallel ports
// when the buses can feed them (parallelism min(n_in, n_out)); once both
// port counts exceed the bus count the transports serialize and the cost
// grows with max(n_in, n_out)/n_b.
func rfCost(np, cd, nIn, nOut, buses int) int {
	if nIn <= buses && nOut <= buses {
		p := nIn
		if nOut < p {
			p = nOut
		}
		if p < 1 {
			p = 1
		}
		return ceilDiv(np, p) * cd
	}
	m := nIn
	if nOut > m {
		m = nOut
	}
	return ceilDiv(np*m, buses) * cd
}

// AreaDelayContext exposes the library's area and critical-path
// annotation for a component (used by the DSE's area/throughput axes),
// with cancellation as in EvaluateContext.
func (a *Annotator) AreaDelayContext(ctx context.Context, c *tta.Component) (area, delay float64, err error) {
	an, err := a.componentAnnotation(ctx, c)
	if err != nil {
		return 0, 0, err
	}
	return an.area, an.delay, nil
}

// SocketArea returns the cell area of one input plus one output socket —
// multiplied by the port counts it models the interconnect/control
// overhead growing with sockets and buses.
func (a *Annotator) SocketArea() (in, out float64, err error) {
	if err := a.sockets(); err != nil {
		return 0, 0, err
	}
	ic, err := a.Lib.InputSocket(SocketIDBits)
	if err != nil {
		return 0, 0, err
	}
	oc, err := a.Lib.OutputSocket(SocketIDBits)
	if err != nil {
		return 0, 0, err
	}
	return ic.Seq.Area(), oc.Seq.Area(), nil
}
