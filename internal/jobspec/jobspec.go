// Package jobspec defines the serializable description of one
// exploration job — the single source of truth shared by the ttadse CLI
// (flags map 1:1 onto Spec fields) and the ttadsed daemon (the POST
// /v1/jobs body IS a Spec), so the two surfaces can never drift.
//
// A Spec carries only JSON-serializable values: workload and space knobs,
// selection norm and weights, cache/checkpoint paths, deadlines and the
// candidate-level parallelism. It deliberately carries no live objects
// (annotators, registries, contexts) — those are wired by the consumer
// (dse.FromSpec + the caller), which keeps a Spec safe to persist, log,
// and replay. Throughput settings that never change a result — the
// workers inside each gate-level ATPG run and the fault-simulation lane
// width — are not part of a Spec; the engine derives them. The daemon
// still accepts, and ignores, the two retired keys older clients sent
// for them (internal/service). Shard supervision is not part of a Spec
// either: the retired ShardSpec keys (max_restarts, stall_timeout,
// heartbeat_interval, backoff_base, backoff_max, restart_window) are
// unknown fields, which the daemon rejects — a client that sent one
// expected a behaviour the daemon no longer offers.
package jobspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// Workload names accepted by Spec.Workload ("" means crypt, the paper's
// application). The builders live in internal/crypt and
// internal/workloads; dse.FromSpec resolves names to graphs.
var Workloads = []string{"crypt", "crc16", "vecmax", "countbelow", "checksum"}

// Norm names accepted by Spec.Norm ("" means euclid).
var Norms = []string{"euclid", "manhattan", "chebyshev"}

// DegradedPolicies accepted by Spec.DegradedPolicy ("" means allow).
var DegradedPolicies = []string{"allow", "penalize", "exclude"}

// Duration is a time.Duration that marshals as a Go duration string
// ("150ms", "2m30s") and unmarshals from either a string or a number of
// nanoseconds — human-writable in curl bodies, exact in round-trips.
type Duration time.Duration

// MarshalJSON renders the duration as a quoted Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "150ms"-style strings or raw nanosecond numbers.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("jobspec: invalid duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return fmt.Errorf("jobspec: duration must be a string like \"30s\" or nanoseconds: %s", data)
	}
	*d = Duration(ns)
	return nil
}

// Std returns the value as a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// String renders the value like time.Duration ("150ms", "2m30s").
func (d Duration) String() string { return time.Duration(d).String() }

// Spec is one exploration job, fully serializable. The zero value
// describes the paper's default study (crypt workload, full 288-candidate
// space, equal-weight Euclidean selection, no budgets).
type Spec struct {
	// Workload selects the application kernel: crypt (default), crc16,
	// vecmax, countbelow or checksum.
	Workload string `json:"workload,omitempty"`

	// Width and Seed parameterize the gate-level library annotation
	// (0 = the defaults, 16 and 7). Jobs sharing Width and Seed can share
	// one warm Annotator.
	Width int   `json:"width,omitempty"`
	Seed  int64 `json:"seed,omitempty"`

	// Buses, ALUs and CMPs span the explored space (empty = the paper's
	// defaults). Normalize sorts and deduplicates them.
	Buses []int `json:"buses,omitempty"`
	ALUs  []int `json:"alus,omitempty"`
	CMPs  []int `json:"cmps,omitempty"`

	// Norm and the weights drive the figure-9 selection:
	// euclid (default), manhattan or chebyshev; all-zero weights mean
	// equal (1,1,1).
	Norm string  `json:"norm,omitempty"`
	WA   float64 `json:"wa,omitempty"`
	WT   float64 `json:"wt,omitempty"`
	WC   float64 `json:"wc,omitempty"`

	// DegradedPolicy controls whether budget-degraded candidates may win
	// the selection: allow (default), penalize or exclude.
	// DegradedPenalty is the penalize multiplier (0 = default 2).
	DegradedPolicy  string  `json:"degraded_policy,omitempty"`
	DegradedPenalty float64 `json:"degraded_penalty,omitempty"`

	// Cache names the warm-start annotation cache file. The CLI loads and
	// rewrites it; the daemon ignores it (its warm cache is process-wide,
	// see cmd/ttadsed -cache).
	Cache string `json:"cache,omitempty"`

	// Checkpoint names the checkpoint/resume file: completed evaluations
	// are persisted there and restored by the next job with the same spec.
	Checkpoint string `json:"checkpoint,omitempty"`

	// Timeout bounds the whole exploration's wall clock (0 = none);
	// on expiry the completed subset is still reported. ATPGDeadline
	// budgets each gate-level ATPG run behind an annotation-cache miss;
	// an exhausted budget degrades that annotation to an analytical bound.
	Timeout      Duration `json:"timeout,omitempty"`
	ATPGDeadline Duration `json:"atpg_deadline,omitempty"`

	// Parallelism bounds concurrent candidate evaluations (0 =
	// GOMAXPROCS). Results are identical at any setting.
	Parallelism int `json:"parallelism,omitempty"`

	// VerifySelected re-derives and simulates the selected candidate's
	// schedule after the exploration.
	VerifySelected bool `json:"verify_selected,omitempty"`

	// Search, when non-nil, switches the job from the exhaustive sweep to
	// the guided GA + successive-halving exploration over the widened
	// parameter space; Buses/ALUs/CMPs are then ignored. See
	// dse.SearchSpec for the engine semantics.
	Search *SearchSpec `json:"search,omitempty"`

	// Shard, when non-nil, runs the job as a sharded fan-out: the daemon
	// forks Shards local worker processes, each evaluating a deterministic
	// contiguous slice of the candidate space, and merges their shard
	// checkpoints into one report byte-identical to the unsharded run.
	// Sharding is a throughput topology, not a result parameter: Hash
	// ignores it.
	Shard *ShardSpec `json:"shard,omitempty"`
}

// ShardSpec configures process-sharded execution of a job: how many
// worker processes, nothing more. Worker supervision (restart budget,
// stall watchdog, heartbeats, backoff) is a fixed daemon policy in
// internal/service, so no client can weaken it.
type ShardSpec struct {
	// Shards is the number of worker processes (>= 1).
	Shards int `json:"shards"`
}

// MaxShards caps ShardSpec.Shards: each shard is a full OS process, so
// the useful count is bounded by cores, not candidates.
const MaxShards = 256

// Validate reports whether the shard topology is runnable.
func (s *ShardSpec) Validate() error {
	if s.Shards < 1 {
		return fmt.Errorf("jobspec: shard count %d (want >= 1)", s.Shards)
	}
	if s.Shards > MaxShards {
		return fmt.Errorf("jobspec: shard count %d exceeds the maximum %d", s.Shards, MaxShards)
	}
	return nil
}

// SearchSpec configures guided search (mirrors dse.SearchSpec field for
// field; kept separate so the wire format has no dependency on engine
// types). Zero fields take the engine defaults: population 64,
// 8 generations, eta 4, seed = Spec.Seed.
type SearchSpec struct {
	Population  int   `json:"population,omitempty"`
	Generations int   `json:"generations,omitempty"`
	Eta         int   `json:"eta,omitempty"`
	Seed        int64 `json:"seed,omitempty"`
}

// Validate reports whether the spec describes a runnable job. It checks
// membership of the enum-like fields and the sign constraints the engine
// enforces, so both surfaces (CLI flag parsing, daemon POST body) reject
// bad inputs identically and before any work is spent.
func (s *Spec) Validate() error {
	if !member(s.Workload, Workloads) {
		return fmt.Errorf("jobspec: unknown workload %q (want %s)", s.Workload, oneOf(Workloads))
	}
	if !member(s.Norm, Norms) {
		return fmt.Errorf("jobspec: unknown norm %q (want %s)", s.Norm, oneOf(Norms))
	}
	if !member(s.DegradedPolicy, DegradedPolicies) {
		return fmt.Errorf("jobspec: unknown degraded policy %q (want %s)", s.DegradedPolicy, oneOf(DegradedPolicies))
	}
	if s.Width < 0 {
		return fmt.Errorf("jobspec: width %d is negative (use 0 for the default)", s.Width)
	}
	if s.Seed < 0 {
		return fmt.Errorf("jobspec: seed %d is negative (use 0 for the default)", s.Seed)
	}
	if s.WA < 0 || s.WT < 0 || s.WC < 0 {
		return fmt.Errorf("jobspec: selection weights must be non-negative (got wa=%g wt=%g wc=%g)", s.WA, s.WT, s.WC)
	}
	if s.DegradedPenalty != 0 && s.DegradedPenalty < 1 {
		return fmt.Errorf("jobspec: degraded penalty %g below 1 would favor unmeasured points", s.DegradedPenalty)
	}
	if s.Timeout < 0 {
		return fmt.Errorf("jobspec: timeout %v is negative (use 0 for none)", s.Timeout.Std())
	}
	if s.ATPGDeadline < 0 {
		return fmt.Errorf("jobspec: atpg_deadline %v is negative (use 0 for no budget)", s.ATPGDeadline.Std())
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("jobspec: parallelism %d is negative (use 0 for GOMAXPROCS)", s.Parallelism)
	}
	if s.Shard != nil {
		if err := s.Shard.Validate(); err != nil {
			return err
		}
	}
	for _, l := range []struct {
		name string
		vals []int
	}{{"buses", s.Buses}, {"alus", s.ALUs}, {"cmps", s.CMPs}} {
		for _, v := range l.vals {
			if v < 1 {
				return fmt.Errorf("jobspec: %s contains %d (want positive counts)", l.name, v)
			}
		}
	}
	if s.Search != nil {
		if s.Search.Population < 0 || s.Search.Generations < 0 || s.Search.Eta < 0 {
			return fmt.Errorf("jobspec: negative search parameter (population %d, generations %d, eta %d; use 0 for defaults)",
				s.Search.Population, s.Search.Generations, s.Search.Eta)
		}
		if s.Search.Eta == 1 {
			return fmt.Errorf("jobspec: search eta 1 promotes every genome and screens nothing (want >= 2, or 0 for the default)")
		}
		if s.Search.Seed < 0 {
			return fmt.Errorf("jobspec: search seed %d is negative (use 0 to follow the job seed)", s.Search.Seed)
		}
	}
	return nil
}

// Normalize sorts and deduplicates the space lists in place, exactly as
// the CLI's list flags always have: repeated or unordered values would
// otherwise enumerate (and evaluate) the same candidates twice. It is
// idempotent; Validate does not require it.
func (s *Spec) Normalize() {
	s.Buses = sortedUnique(s.Buses)
	s.ALUs = sortedUnique(s.ALUs)
	s.CMPs = sortedUnique(s.CMPs)
}

// Hash returns a short stable identity for the job's RESULT: two specs
// hash equal exactly when they describe the same deterministic report.
// Topology and throughput knobs (shard layout, parallelism) and I/O
// paths (cache, checkpoint) are excluded — results are byte-identical
// across all of them — as is Timeout, which changes only where a run may
// be cut off, never the converged bytes. ATPGDeadline stays in: a
// budgeted run records degraded annotations with different values. The
// hash names checkpoint files, so every shard of a job and its unsharded
// twin agree on it.
func (s Spec) Hash() string {
	// The receiver is a shallow copy; Normalize would otherwise sort the
	// caller's slices in place through the shared backing arrays.
	s.Buses = append([]int(nil), s.Buses...)
	s.ALUs = append([]int(nil), s.ALUs...)
	s.CMPs = append([]int(nil), s.CMPs...)
	if s.Search != nil {
		sr := *s.Search
		s.Search = &sr
	}
	s.Shard = nil
	s.Parallelism = 0
	s.Cache = ""
	s.Checkpoint = ""
	s.Timeout = 0
	s.Normalize()
	b, err := json.Marshal(&s)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on one.
		panic(fmt.Sprintf("jobspec: marshal spec for hash: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// AnnotatorKey returns the identity of the warm annotation state this job
// can share: two specs with equal keys back-annotate from the same
// library configuration and may reuse one testcost.Annotator. The ATPG
// deadline is part of the key because a budgeted run may record degraded
// (bound, not measured) annotations that an unbudgeted run must not
// inherit.
func (s *Spec) AnnotatorKey() string {
	w := s.Width
	if w == 0 {
		w = 16
	}
	seed := s.Seed
	if seed == 0 {
		seed = 7
	}
	return fmt.Sprintf("w%d/s%d/d%s", w, seed, s.ATPGDeadline.Std())
}

func sortedUnique(vals []int) []int {
	if len(vals) == 0 {
		return vals
	}
	seen := make(map[int]bool, len(vals))
	out := vals[:0]
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

func member(v string, allowed []string) bool {
	if v == "" {
		return true
	}
	for _, a := range allowed {
		if v == a {
			return true
		}
	}
	return false
}

func oneOf(vals []string) string {
	out := ""
	for i, v := range vals {
		switch {
		case i == 0:
		case i == len(vals)-1:
			out += " or "
		default:
			out += ", "
		}
		out += v
	}
	return out
}
