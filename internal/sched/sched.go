// Package sched schedules operation dataflow graphs onto TTA architectures
// as data-transport (move) programs — the role the MOVE framework's
// compiler/scheduler plays in the paper. It performs priority-based list
// scheduling under the architecture's resource constraints:
//
//   - at most n_b moves per cycle (one per MOVE bus; the interconnection
//     network is a full crossbar, as in the paper's figure 1);
//   - one operation in flight per function unit (conservative hybrid
//     pipelining: a unit is busy from its first operand move until its
//     result leaves through the output socket);
//   - register-file read/write ports limit operand fetch and writeback
//     bandwidth, and register capacity limits live values;
//   - one immediate per cycle per Immediate unit.
//
// Transport timing follows the paper's relations (2)-(8): a move on the
// bus at cycle t passes the socket decode (F_in) at t and loads the O or T
// register at t+1; the result register R loads one cycle after the
// trigger; the result may leave on a bus no earlier than one cycle after
// that (F_out). The minimum bus-to-bus distance is therefore CD = 3
// cycles, equation (9).
package sched

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/tta"
)

// Endpoint is one side of a move: a component port, optionally a register
// within a register file. A source endpoint on an Immediate unit carries
// the literal in Imm (the value travels in the instruction's immediate
// field).
type Endpoint struct {
	Comp int // component index in the architecture
	Port int // port index within the component
	Reg  int // register index for RF endpoints, -1 otherwise
	Imm  uint64
}

func (e Endpoint) String() string {
	if e.Reg >= 0 {
		return fmt.Sprintf("c%d.p%d[r%d]", e.Comp, e.Port, e.Reg)
	}
	return fmt.Sprintf("c%d.p%d", e.Comp, e.Port)
}

// SpillKind classifies the moves of compiler-inserted register spills.
type SpillKind uint8

// Spill move kinds. Spill code is emitted by the scheduler when register
// pressure exceeds the architecture's register-file capacity: the victim
// value is stored to a reserved memory region through the LD/ST unit and
// reloaded before its next use. Since IR values are immutable (SSA), a
// value that already has a spill slot can be dropped from its register
// without a second store.
const (
	SpillNone       SpillKind = iota
	SpillStoreAddr            // immediate spill address -> LD/ST operand
	SpillStoreData            // register value -> LD/ST trigger (memory write)
	SpillLoadTrig             // immediate spill address -> LD/ST trigger (memory read)
	SpillLoadResult           // LD/ST result -> register
)

// SpillBase is the first word address of the reserved spill region.
// Programs must not address memory at or above this base.
const SpillBase uint64 = 0xE000

// Move is one scheduled data transport.
type Move struct {
	Cycle   int
	Src     Endpoint
	Dst     Endpoint
	Val     program.ValueID // value transported (NoValue for a dummy)
	Op      program.ValueID // graph operation this move belongs to (NoValue for spills)
	Trigger bool            // this move loads the trigger register
	Spill   SpillKind
}

func (m Move) String() string {
	t := ""
	if m.Trigger {
		t = "!"
	}
	return fmt.Sprintf("@%d %s -> %s%s", m.Cycle, m.Src, m.Dst, t)
}

// RegLoc records where a value was allocated.
type RegLoc struct {
	RF  int // component index of the register file
	Reg int
}

// Result is a complete schedule.
type Result struct {
	Arch   *tta.Architecture
	Graph  *program.Graph
	Moves  []Move
	Cycles int
	// Timings maps FU-executed graph ops to their transport timing, for
	// verification against the paper's relations. Stores are omitted (they
	// produce no F_out event).
	Timings map[program.ValueID]tta.OpTiming
	// FUOf maps graph ops to the component index that executed them.
	FUOf map[program.ValueID]int
	// RegAlloc maps values to their final register-file location.
	RegAlloc map[program.ValueID]RegLoc
	// InputLoc maps program inputs to the registers they must be seeded
	// into before execution (their initial placement; RegAlloc may differ
	// after spilling).
	InputLoc map[program.ValueID]RegLoc
	// PeakLive is the maximum simultaneously allocated registers.
	PeakLive int
	// Spills and Reloads count the spill traffic the register pressure
	// forced (0 on amply-registered architectures).
	Spills  int
	Reloads int
}

// MovesPerCycle returns a histogram of bus occupancy.
func (r *Result) MovesPerCycle() []int {
	h := make([]int, r.Cycles+1)
	for _, m := range r.Moves {
		h[m.Cycle]++
	}
	return h
}

// Summary is the cost of a schedule without its move program — all the
// design space exploration reads of most schedules.
type Summary struct {
	Cycles   int
	Spills   int
	Reloads  int
	PeakLive int
	Moves    int // number of moves in the program
}

// Summary returns the schedule's cost, as SummarizeContext reports it.
func (r *Result) Summary() Summary {
	return Summary{Cycles: r.Cycles, Spills: r.Spills, Reloads: r.Reloads,
		PeakLive: r.PeakLive, Moves: len(r.Moves)}
}

// Priority selects the list-scheduling order.
type Priority uint8

// Scheduling priorities.
const (
	// CriticalPath orders ready operations by their longest path to an
	// output (the standard list-scheduling heuristic; default).
	CriticalPath Priority = iota
	// SourceOrder keeps program order — the naive baseline the ablation
	// benchmarks compare against.
	SourceOrder
)

func (p Priority) String() string {
	if p == SourceOrder {
		return "source-order"
	}
	return "critical-path"
}

// Options tunes the scheduler.
type Options struct {
	// MaxCycles aborts a runaway schedule (0 = derive from graph size).
	MaxCycles int
	// Priority selects the list-scheduling order (default CriticalPath).
	Priority Priority
	// Obs, when non-nil, receives scheduler metrics: cycles iterated,
	// moves emitted, spill/reload traffic and stall cycles (counters
	// "sched.*"). A nil registry costs nothing.
	Obs *obs.Registry
}

type valueState struct {
	loc      RegLoc
	readyAt  int // cycle from which the value can be read from its RF
	usesLeft int
	isConst  bool
	constVal uint64
	alloc    bool
	isOutput bool // outputs are pinned in registers (never spilled)

	spillSlot    int  // memory slot index (-1 = none assigned)
	spillValid   bool // the memory copy at spillSlot is written and usable
	spillReadyAt int  // earliest cycle a reload may trigger
	loadPending  bool
	// noEvictUntil shields a freshly reloaded value from immediate
	// re-eviction (otherwise demand spilling can evict the operand of the
	// very op it is trying to unblock, forever).
	noEvictUntil int
}

type opState struct {
	fu       int // component index executing the op
	started  bool
	tFirstIn int // bus cycle of the first input move
	tTrig    int // bus cycle of the trigger move (-1 until scheduled)
	done     bool
	// resLoc is the register reserved for the result at start time —
	// reserving early guarantees a started operation can always retire, so
	// function units never block on register starvation.
	resLoc RegLoc
}

// ScheduleContext maps the graph onto the architecture and returns the
// complete move program. It returns an error when the architecture
// cannot execute the graph (missing unit kinds, too few registers), when
// scheduling exceeds the cycle bound, or ctx.Err() when ctx is done: the
// scheduling loop polls ctx periodically, so a pathological schedule
// inside a large exploration cannot outlive its caller's deadline.
func ScheduleContext(ctx context.Context, g *program.Graph, arch *tta.Architecture, opts Options) (*Result, error) {
	s, err := acquire(g, arch, opts, true)
	if err != nil {
		return nil, err
	}
	defer s.release()
	if err := s.run(ctx); err != nil {
		return nil, err
	}
	// Every move is emitted at the current scheduling cycle, so Moves is
	// already in cycle order.
	return &Result{
		Arch:     arch,
		Graph:    g,
		Moves:    s.moves,
		Cycles:   s.cycles(),
		Timings:  s.timings,
		FUOf:     s.fuOf,
		RegAlloc: s.regAlloc,
		InputLoc: s.inputLoc,
		PeakLive: s.peakLive,
		Spills:   s.spillCount,
		Reloads:  s.reloadCount,
	}, nil
}

// SummarizeContext is ScheduleContext for callers that only need the
// schedule's cost: it makes exactly the same scheduling decisions (and
// reports the same sched.* metrics and errors) but materializes none of
// the move program, so it allocates next to nothing per call. The
// design space exploration screens candidates with it.
func SummarizeContext(ctx context.Context, g *program.Graph, arch *tta.Architecture, opts Options) (Summary, error) {
	s, err := acquire(g, arch, opts, false)
	if err != nil {
		return Summary{}, err
	}
	defer s.release()
	if err := s.run(ctx); err != nil {
		return Summary{}, err
	}
	return Summary{
		Cycles:   s.cycles(),
		Spills:   s.spillCount,
		Reloads:  s.reloadCount,
		PeakLive: s.peakLive,
		Moves:    s.nMoves,
	}, nil
}

// compPorts caches one component's port indices for a schedule
// (tta.Component.InputPorts/OutputPorts allocate on every call).
type compPorts struct {
	in, out                  []int
	operand, trigger, result int // first port of each FU role, -1 if none
}

// graphPlan is the architecture-independent part of scheduling a graph:
// the consumer lists, the critical-path order of the function-unit ops
// and the op statistics. It is computed once per graph and kept with the
// pooled scratch; ops and outputs are copies, compared on every lookup,
// so a graph edited after scheduling never reuses a stale plan.
type graphPlan struct {
	width     int
	ops       []program.Operation
	outputs   []program.ValueID
	stats     program.Stats
	consumers [][]int32 // per value: consuming op indices (ascending)
	fuOps     []int     // function-unit ops in program order
	byHeight  []int     // fuOps in critical-path priority order
	sourcePos []int32   // per op: its position in fuOps
	heightPos []int32   // per op: its position in byHeight
}

func (p *graphPlan) matches(g *program.Graph) bool {
	return p.width == g.Width && slices.Equal(p.ops, g.Ops) && slices.Equal(p.outputs, g.Outputs)
}

func newGraphPlan(g *program.Graph) *graphPlan {
	p := &graphPlan{
		width:     g.Width,
		ops:       slices.Clone(g.Ops),
		outputs:   slices.Clone(g.Outputs),
		stats:     g.Stats(),
		consumers: make([][]int32, len(g.Ops)),
	}
	for i, op := range g.Ops {
		for _, ref := range []program.ValueID{op.A, op.B} {
			if ref != program.NoValue {
				p.consumers[ref] = append(p.consumers[ref], int32(i))
			}
		}
		switch op.Op.Class() {
		case program.ClassALU, program.ClassCMP, program.ClassMem:
			p.fuOps = append(p.fuOps, i)
		}
	}
	height := computeHeights(g)
	p.byHeight = slices.Clone(p.fuOps)
	sort.SliceStable(p.byHeight, func(a, b int) bool { return height[p.byHeight[a]] > height[p.byHeight[b]] })
	p.sourcePos = make([]int32, len(g.Ops))
	p.heightPos = make([]int32, len(g.Ops))
	for pos, oi := range p.fuOps {
		p.sourcePos[oi] = int32(pos)
	}
	for pos, oi := range p.byHeight {
		p.heightPos[oi] = int32(pos)
	}
	return p
}

// planCacheSize bounds the graph plans one pooled scheduler keeps: a
// worker usually schedules one kernel, a daemon a handful.
const planCacheSize = 4

type scheduler struct {
	g    *program.Graph
	arch *tta.Architecture
	opts Options
	full bool // materialize the move program (ScheduleContext)

	plan     *graphPlan
	plans    [planCacheSize]*graphPlan
	nextPlan int // round-robin replacement slot in plans

	fuByKind  [][]int // indexed by tta.Kind
	rfs       []int   // component indices of register files
	imms      []int
	rfIndex   []int    // per component: position in rfs (-1 = not an RF)
	rfFree    [][]bool // per RF: free register map
	rfFreeBuf []bool
	rfFreeN   []int // per RF: free register count
	totalRegs int
	ports     []compPorts
	portBuf   []int

	vals     []valueState
	ops      []opState
	fuBusyBy []int // per component: cycle until which the FU is busy (-1 free)

	// Per-cycle resource counters, per component (cleared each cycle).
	busFree  int
	rfReads  []int
	rfWrites []int
	immUsed  []int

	pendings []int
	inflight []int
	// An op whose operand is not produced yet sleeps on that value
	// rather than being retried every cycle: sleepHead[v] starts a list
	// of sleeping ops threaded through sleepNext (-1 ends it), and
	// sleepOn[op] is the value an op sleeps on (-1 = awake). Producing v
	// moves its sleepers to woken, which rejoins the pending list in
	// priority order before the next start phase. Sleeping never changes
	// the schedule: a retry of a sleeping op would fail before touching
	// any state — unless an operand it already passed is evicted, which
	// is why evicting a value wakes its consumers (a retry then requests
	// the reload, exactly as it does for an op that never slept).
	sleepHead []int32
	sleepNext []int32
	sleepOn   []int32
	woken     []int
	merged    []int
	rank      []int32 // per op: position in the pending order

	// The move program (full mode only) and its summary (both modes).
	moves     []Move
	nMoves    int
	lastCycle int
	timings   map[program.ValueID]tta.OpTiming
	fuOf      map[program.ValueID]int
	regAlloc  map[program.ValueID]RegLoc
	inputLoc  map[program.ValueID]RegLoc
	live      int
	peakLive  int

	memReady int // earliest cycle the next memory op may trigger

	// Spill machinery.
	spills      []spillJob
	spillSlots  int
	spillCount  int // total spill stores emitted
	reloadCount int
	stallStreak int
	stallTotal  int // cycles in which no move was emitted
	movedNow    bool
	// wantSpill is raised when an op could start but for register
	// capacity — demand-driven spilling keeps function units busy even
	// when other traffic prevents a full stall.
	wantSpill bool
}

// schedulers pools scheduler scratch across calls: an exploration
// schedules thousands of candidates, and the per-schedule slices (value
// and op state, resource counters, pending lists) would otherwise be
// reallocated for each one.
var schedulers = sync.Pool{New: func() any { return new(scheduler) }}

// acquire validates the inputs and returns a pooled scheduler prepared
// for one schedule of g on arch; the caller must release it.
func acquire(g *program.Graph, arch *tta.Architecture, opts Options, full bool) (*scheduler, error) {
	s := schedulers.Get().(*scheduler)
	if err := s.reset(g, arch, opts, full); err != nil {
		s.release()
		return nil, err
	}
	return s, nil
}

// release returns the scheduler to the pool. The move program and maps
// belong to the caller's Result by now, so the pool forgets them, and
// it drops the architecture and graph so they are not kept alive.
func (s *scheduler) release() {
	s.g, s.arch, s.opts = nil, nil, Options{}
	s.moves, s.timings, s.fuOf, s.regAlloc, s.inputLoc = nil, nil, nil, nil, nil
	s.plan, s.rank = nil, nil
	schedulers.Put(s)
}

// lookupPlan returns the cached plan of g, building (and validating) it
// on a miss. A hit implies g passed Validate before.
func (s *scheduler) lookupPlan(g *program.Graph) (*graphPlan, error) {
	for _, p := range s.plans {
		if p != nil && p.matches(g) {
			return p, nil
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	p := newGraphPlan(g)
	s.plans[s.nextPlan] = p
	s.nextPlan = (s.nextPlan + 1) % planCacheSize
	return p, nil
}

// grow returns buf resized to n, reusing its capacity.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

func (s *scheduler) reset(g *program.Graph, arch *tta.Architecture, opts Options, full bool) error {
	plan, err := s.lookupPlan(g)
	if err != nil {
		return err
	}
	if err := arch.Validate(); err != nil {
		return err
	}
	s.g, s.arch, s.opts, s.full, s.plan = g, arch, opts, full, plan

	nc := len(arch.Components)
	for k := range s.fuByKind {
		s.fuByKind[k] = s.fuByKind[k][:0]
	}
	s.rfs, s.imms = s.rfs[:0], s.imms[:0]
	s.rfIndex = grow(s.rfIndex, nc)
	s.ports = grow(s.ports, nc)
	nPorts := 0
	for ci := range arch.Components {
		nPorts += len(arch.Components[ci].Ports)
	}
	// Sized up front, so the port lists sliced from it stay valid.
	ports := grow(s.portBuf, nPorts)[:0]
	for ci := range arch.Components {
		c := &arch.Components[ci]
		s.rfIndex[ci] = -1
		switch c.Kind {
		case tta.RF:
			s.rfIndex[ci] = len(s.rfs)
			s.rfs = append(s.rfs, ci)
		case tta.IMM:
			s.imms = append(s.imms, ci)
		default:
			for int(c.Kind) >= len(s.fuByKind) {
				s.fuByKind = append(s.fuByKind, nil)
			}
			s.fuByKind[c.Kind] = append(s.fuByKind[c.Kind], ci)
		}
		in := len(ports)
		for i, p := range c.Ports {
			if p.Role.IsInput() {
				ports = append(ports, i)
			}
		}
		out := len(ports)
		for i, p := range c.Ports {
			if !p.Role.IsInput() {
				ports = append(ports, i)
			}
		}
		s.ports[ci] = compPorts{
			in:      ports[in:out:out],
			out:     ports[out:len(ports):len(ports)],
			operand: portOf(c, tta.Operand),
			trigger: portOf(c, tta.Trigger),
			result:  portOf(c, tta.Result),
		}
	}
	s.portBuf = ports

	st := &plan.stats
	if st.ALU > 0 && len(s.fusOf(tta.ALU)) == 0 {
		return fmt.Errorf("sched: graph needs an ALU, architecture has none")
	}
	if st.CMP > 0 && len(s.fusOf(tta.CMP)) == 0 {
		return fmt.Errorf("sched: graph needs a CMP unit, architecture has none")
	}
	if st.Loads+st.Stores > 0 && len(s.fusOf(tta.LDST)) == 0 {
		return fmt.Errorf("sched: graph needs a LD/ST unit, architecture has none")
	}
	if st.Consts > 0 && len(s.imms) == 0 {
		return fmt.Errorf("sched: graph needs an Immediate unit, architecture has none")
	}
	if len(s.rfs) == 0 {
		return fmt.Errorf("sched: architecture has no register file")
	}
	s.totalRegs = 0
	for _, rf := range s.rfs {
		s.totalRegs += arch.Components[rf].NumRegs
	}
	if s.totalRegs < st.Inputs+st.Outputs {
		return fmt.Errorf("sched: %d registers cannot hold %d inputs + %d outputs",
			s.totalRegs, st.Inputs, st.Outputs)
	}

	s.rfFreeBuf = grow(s.rfFreeBuf, s.totalRegs)
	for i := range s.rfFreeBuf {
		s.rfFreeBuf[i] = true
	}
	s.rfFree = grow(s.rfFree, len(s.rfs))
	s.rfFreeN = grow(s.rfFreeN, len(s.rfs))
	off := 0
	for i, rf := range s.rfs {
		n := arch.Components[rf].NumRegs
		s.rfFree[i] = s.rfFreeBuf[off : off+n : off+n]
		s.rfFreeN[i] = n
		off += n
	}
	s.fuBusyBy = grow(s.fuBusyBy, nc)
	for i := range s.fuBusyBy {
		s.fuBusyBy[i] = -1
	}
	s.rfReads = grow(s.rfReads, nc)
	s.rfWrites = grow(s.rfWrites, nc)
	s.immUsed = grow(s.immUsed, nc)

	n := len(g.Ops)
	s.vals = grow(s.vals, n)
	clear(s.vals)
	s.ops = grow(s.ops, n) // run initializes every op
	s.sleepHead = grow(s.sleepHead, n)
	for i := range s.sleepHead {
		s.sleepHead[i] = -1
	}
	s.sleepNext = grow(s.sleepNext, n)
	s.sleepOn = grow(s.sleepOn, n)
	for i := range s.sleepOn {
		s.sleepOn[i] = -1
	}
	s.woken = s.woken[:0]

	if full {
		s.timings = map[program.ValueID]tta.OpTiming{}
		s.fuOf = map[program.ValueID]int{}
		s.regAlloc = map[program.ValueID]RegLoc{}
		s.inputLoc = map[program.ValueID]RegLoc{}
	}
	s.nMoves, s.lastCycle = 0, 0
	s.live, s.peakLive = 0, 0
	s.memReady = 0
	s.spills = s.spills[:0]
	s.spillSlots, s.spillCount, s.reloadCount = 0, 0, 0
	s.stallStreak, s.stallTotal = 0, 0
	s.movedNow, s.wantSpill = false, false
	return nil
}

// fusOf returns the function units of one kind.
func (s *scheduler) fusOf(k tta.Kind) []int {
	if int(k) < len(s.fuByKind) {
		return s.fuByKind[k]
	}
	return nil
}

// cycles is the schedule length: the last bus cycle plus the register
// load cycle after it (0 for an empty program).
func (s *scheduler) cycles() int {
	if s.nMoves == 0 {
		return 0
	}
	return s.lastCycle + 1
}

// computeHeights returns the longest path (in ops) from each op to a
// graph output — the list-scheduling priority.
func computeHeights(g *program.Graph) []int {
	h := make([]int, len(g.Ops))
	users := make([][]int32, len(g.Ops))
	for i, op := range g.Ops {
		for _, ref := range []program.ValueID{op.A, op.B, op.MemPred} {
			if ref != program.NoValue {
				users[ref] = append(users[ref], int32(i))
			}
		}
	}
	for i := len(g.Ops) - 1; i >= 0; i-- {
		best := 0
		for _, u := range users[i] {
			if h[u]+1 > best {
				best = h[u] + 1
			}
		}
		h[i] = best
	}
	return h
}

// ctxCheckInterval is how many scheduling cycles pass between context
// polls — frequent enough for prompt cancellation, rare enough to stay
// off the per-cycle fast path.
const ctxCheckInterval = 64

func (s *scheduler) run(ctx context.Context) error {
	g := s.g
	// Count uses so registers can be freed after the last read.
	for i := range s.vals {
		s.vals[i].loc = RegLoc{-1, -1}
		s.vals[i].usesLeft = len(s.plan.consumers[i])
		s.vals[i].spillSlot = -1
	}
	for _, o := range g.Outputs {
		s.vals[o].usesLeft++ // outputs stay live forever
		s.vals[o].isOutput = true
	}

	// Place inputs and constants.
	for i, op := range g.Ops {
		switch op.Op {
		case program.Input:
			loc, ok := s.allocReg(0)
			if !ok {
				return fmt.Errorf("sched: not enough registers for program inputs")
			}
			s.vals[i].loc = loc
			s.vals[i].readyAt = 0
			s.vals[i].alloc = true
			if s.full {
				s.regAlloc[program.ValueID(i)] = loc
				s.inputLoc[program.ValueID(i)] = loc
			}
		case program.Const:
			s.vals[i].isConst = true
			s.vals[i].constVal = op.Imm
			s.vals[i].readyAt = 0
		}
		s.ops[i] = opState{fu: -1, tTrig: -1, resLoc: RegLoc{-1, -1}, done: true}
	}

	// Pending FU operations in priority order.
	order := s.plan.fuOps
	s.rank = s.plan.sourcePos
	if s.opts.Priority == CriticalPath {
		order, s.rank = s.plan.byHeight, s.plan.heightPos
	}
	pendings := append(s.pendings[:0], order...)
	for _, oi := range pendings {
		s.ops[oi].done = false
	}

	maxCycles := s.opts.MaxCycles
	if maxCycles == 0 {
		maxCycles = 40*len(g.Ops) + 2000
	}

	remaining := len(pendings)
	inflight := s.inflight[:0]
	defer func() { s.pendings, s.inflight = pendings[:0], inflight[:0] }()
	cycle := 0
	if r := s.opts.Obs; r != nil {
		defer func() {
			r.Counter("sched.runs").Inc()
			r.Counter("sched.cycles").Add(int64(cycle))
			r.Counter("sched.moves").Add(int64(s.nMoves))
			r.Counter("sched.spills").Add(int64(s.spillCount))
			r.Counter("sched.reloads").Add(int64(s.reloadCount))
			r.Counter("sched.stall_cycles").Add(int64(s.stallTotal))
		}()
	}
	for remaining > 0 {
		if cycle%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if cycle > maxCycles {
			return fmt.Errorf("sched: no convergence after %d cycles (%d ops left; register pressure?)",
				cycle, remaining)
		}
		s.resetCycle()
		s.movedNow = false
		// Phase 0: advance spill stores (they free registers).
		s.stepSpills(cycle, false)
		// Phase 1: drain results of in-flight ops (frees FUs and feeds
		// dependents), and trigger in-flight ops still awaiting their
		// trigger move.
		keep := inflight[:0]
		for _, oi := range inflight {
			st := &s.ops[oi]
			if st.tTrig >= 0 {
				s.tryFinish(oi, cycle)
			} else {
				s.tryTrigger(oi, cycle)
			}
			if st.done {
				remaining--
			} else {
				keep = append(keep, oi)
			}
		}
		inflight = keep
		// Phase 2: start ready ops by priority (inflight ops were handled
		// above; newly started ops join the in-flight set).
		pendings = s.mergeWoken(pendings)
		if s.busFree > 0 {
			kept := pendings[:0]
			for _, oi := range pendings {
				st := &s.ops[oi]
				if st.started {
					continue // moved to inflight in an earlier cycle
				}
				if s.busFree > 0 {
					if v := s.tryStart(oi, cycle); v != program.NoValue {
						s.sleep(oi, v)
						continue
					}
				}
				if st.started {
					// Stores whose trigger landed in the same cycle may
					// finish in a later phase-1 pass.
					inflight = append(inflight, oi)
				} else {
					kept = append(kept, oi)
				}
			}
			pendings = kept
		}
		// Phase 3: reloads run last so they never starve op starts.
		s.stepSpills(cycle, true)
		// Demand-driven spilling: a ready op was blocked purely by
		// register capacity this cycle.
		if s.wantSpill {
			s.wantSpill = false
			s.maybeSpill(cycle)
		}
		// Stall handling: when nothing moved, escalate to spilling; when
		// even spilling cannot help, the architecture genuinely cannot run
		// the program.
		if s.movedNow {
			s.stallStreak = 0
		} else {
			s.stallStreak++
			s.stallTotal++
			if s.stallStreak >= 4 {
				if !s.maybeSpill(cycle) && s.spillsIdle() && s.stallStreak > 8 {
					return fmt.Errorf("sched: starved at cycle %d (%d ops left, %d live registers, no spillable victim)",
						cycle, remaining, s.live)
				}
			}
		}
		cycle++
	}
	return nil
}

// sleep parks op oi until value v is produced.
func (s *scheduler) sleep(oi int, v program.ValueID) {
	s.sleepNext[oi] = s.sleepHead[v]
	s.sleepHead[v] = int32(oi)
	s.sleepOn[oi] = int32(v)
}

// wake releases the ops sleeping on v, which has just been produced.
func (s *scheduler) wake(v program.ValueID) {
	for oi := s.sleepHead[v]; oi >= 0; oi = s.sleepNext[oi] {
		s.sleepOn[oi] = -1
		s.woken = append(s.woken, int(oi))
	}
	s.sleepHead[v] = -1
}

// evicted wakes the sleeping consumers of v, whose register copy has
// just been dropped.
func (s *scheduler) evicted(v program.ValueID) {
	for _, c := range s.plan.consumers[v] {
		w := s.sleepOn[c]
		if w < 0 {
			continue
		}
		p := &s.sleepHead[w]
		for *p != c {
			p = &s.sleepNext[*p]
		}
		*p = s.sleepNext[c]
		s.sleepOn[c] = -1
		s.woken = append(s.woken, int(c))
	}
}

// mergeWoken returns pendings with the woken ops merged back in
// priority order. pendings and s.merged swap buffers.
func (s *scheduler) mergeWoken(pendings []int) []int {
	if len(s.woken) == 0 {
		return pendings
	}
	rank := s.rank
	slices.SortFunc(s.woken, func(a, b int) int { return int(rank[a] - rank[b]) })
	out := s.merged[:0]
	i, j := 0, 0
	for i < len(pendings) && j < len(s.woken) {
		if rank[pendings[i]] < rank[s.woken[j]] {
			out = append(out, pendings[i])
			i++
		} else {
			out = append(out, s.woken[j])
			j++
		}
	}
	out = append(out, pendings[i:]...)
	out = append(out, s.woken[j:]...)
	s.merged = pendings[:0]
	s.woken = s.woken[:0]
	return out
}

func (s *scheduler) resetCycle() {
	s.busFree = s.arch.Buses
	clear(s.rfReads)
	clear(s.rfWrites)
	clear(s.immUsed)
}
