// Checkpoint/resume for long explorations: completed candidate
// evaluations are periodically persisted to a versioned JSON file, so a
// run killed mid-sweep (power loss, OOM, operator ^C) resumes from the
// finished prefix instead of re-measuring every gate-level ATPG run.
//
// On disk a checkpoint is a sequence of CRC32C-framed records (package
// durable): one compact header record, then one record per entry in
// sorted key order. Writes go through an fsync-before-rename atomic
// path, and a torn or bit-flipped file loads its longest valid record
// prefix — the run resumes from the last intact evaluation instead of
// going cold. Files that yield no usable prefix — including files in
// the pre-framing whole-document format, which is no longer read — are
// quarantined as *.corrupt and reported as a typed
// durable.CorruptArtifactError; the run then starts cold.
//
// The file is keyed by everything that determines a candidate's value:
// the checkpoint format version, the gate-level library generation
// (gatelib.LibraryKey), the data-path width, the ATPG seed and a weak
// workload signature (name, width, input and op counts, repetitions).
// Entries are keyed by structKey(arch) plus the architecture name —
// the name embeds the enumeration id, the structure knobs and the
// port-assignment strategy, so no two distinct candidates collide and a
// resumed run restores exactly the evaluations it would have recomputed.
//
// Every persisted field round-trips exactly through JSON (integers, and
// floats via Go's shortest-representation encoding), so a resumed
// exploration is byte-identical to an uninterrupted one.
package dse

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/tta"
)

// CheckpointFormatVersion is the on-disk checkpoint format version.
// Bump it whenever the entry layout or the meaning of a field changes.
const CheckpointFormatVersion = 1

// checkpointFlushEvery bounds the work lost to a crash: the file is
// rewritten after this many newly recorded evaluations (and once more on
// completion).
const checkpointFlushEvery = 16

// checkpointFile is the serialized form. SpecHash and Shard were added
// for process-sharded exploration without bumping the format version:
// both are omitempty, so a pre-shard file decodes as an unsharded
// checkpoint with an unknown spec, exactly what it is.
type checkpointFile struct {
	Version  int    `json:"version"`
	Library  string `json:"library"`
	Width    int    `json:"width"`
	Seed     int64  `json:"seed"`
	Workload string `json:"workload"`

	// SpecHash is jobspec.Spec.Hash() of the job that wrote the file —
	// the topology-independent result identity. Empty when the writer
	// predates sharding or ran outside a spec (direct Config use).
	SpecHash string `json:"spec_hash,omitempty"`

	// Shard, when non-nil, marks the file as one shard's output and makes
	// it a merge input: it holds exactly the evaluations for candidate
	// indices [Lo, Hi) of a Total-candidate space split Shards ways.
	Shard *checkpointShard `json:"shard,omitempty"`

	// Entries holds the decoded entry records; it is never part of the
	// header record.
	Entries map[string]checkpointEntry `json:"-"`
}

// checkpointRecord is one framed entry record: the candidate key and its
// completed evaluation, compact JSON on a single line.
type checkpointRecord struct {
	Key   string          `json:"k"`
	Entry checkpointEntry `json:"e"`
}

// checkpointShard is the shard header: which contiguous slice of the
// deterministic candidate list this file covers.
type checkpointShard struct {
	Shards int `json:"shards"`
	Index  int `json:"index"`
	Lo     int `json:"lo"`
	Hi     int `json:"hi"`
	Total  int `json:"total"`
}

func (s checkpointShard) String() string {
	return fmt.Sprintf("shard %d/%d [%d,%d) of %d", s.Index, s.Shards, s.Lo, s.Hi, s.Total)
}

// checkpointEntry is one completed candidate evaluation — every
// Candidate field except the architecture pointer, which the resuming
// run re-derives from the (deterministic) enumeration.
type checkpointEntry struct {
	Feasible bool    `json:"feasible"`
	Reason   string  `json:"reason,omitempty"`
	Area     float64 `json:"area"`
	Cycles   int     `json:"cycles"`
	Clock    float64 `json:"clock"`
	ExecTime float64 `json:"exec_time"`
	TestCost int     `json:"test_cost"`
	FullScan int     `json:"full_scan"`
	Spills   int     `json:"spills"`
	Energy   float64 `json:"energy"`
	Degraded bool    `json:"degraded,omitempty"`
}

func toCheckpointEntry(c *Candidate) checkpointEntry {
	return checkpointEntry{
		Feasible: c.Feasible, Reason: c.Reason,
		Area: c.Area, Cycles: c.Cycles, Clock: c.Clock, ExecTime: c.ExecTime,
		TestCost: c.TestCost, FullScan: c.FullScan, Spills: c.Spills,
		Energy: c.Energy, Degraded: c.Degraded,
	}
}

// candidate reconstitutes the evaluation for arch.
func (e checkpointEntry) candidate(arch *tta.Architecture) Candidate {
	return Candidate{
		Arch:     arch,
		Feasible: e.Feasible, Reason: e.Reason,
		Area: e.Area, Cycles: e.Cycles, Clock: e.Clock, ExecTime: e.ExecTime,
		TestCost: e.TestCost, FullScan: e.FullScan, Spills: e.Spills,
		Energy: e.Energy, Degraded: e.Degraded,
	}
}

// checkpointKey identifies one candidate: the structural signature plus
// the architecture name (which embeds the enumeration id and the
// port-assignment variant).
func checkpointKey(a *tta.Architecture) string {
	return structKey(a) + "|" + a.Name
}

// CheckpointMismatchError reports a structurally valid checkpoint file
// written by a different exploration (library generation, width, seed or
// workload). The returned Checkpoint starts fresh; callers typically
// warn and let the run overwrite the file.
type CheckpointMismatchError struct {
	Field string
	Want  string
	Got   string
}

func (e *CheckpointMismatchError) Error() string {
	return fmt.Sprintf("dse: checkpoint %s mismatch: file has %s, run wants %s", e.Field, e.Got, e.Want)
}

// CheckpointCorruptError reports a checkpoint file that could not be
// decoded or failed structural validation. The returned Checkpoint
// starts fresh; callers typically warn and let the run overwrite it.
type CheckpointCorruptError struct {
	Reason string
	Err    error
}

func (e *CheckpointCorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("dse: corrupt checkpoint (%s): %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("dse: corrupt checkpoint (%s)", e.Reason)
}

func (e *CheckpointCorruptError) Unwrap() error { return e.Err }

// Checkpoint persists completed candidate evaluations across runs.
// Obtain one with OpenCheckpoint and hand it to Config.Checkpoint; the
// exploration restores matching entries before evaluating and records
// new ones as workers finish (flushing every few completions and once at
// the end). Methods are safe for concurrent use by the worker pool.
type Checkpoint struct {
	mu         sync.Mutex
	flushMu    sync.Mutex // serializes flush snapshot+write; acquired before mu, never while holding it
	path       string
	header     checkpointFile // Entries nil; header fields only
	entries    map[string]checkpointEntry
	sinceFlush int

	// loadedShard is the shard header of the file that was resumed from
	// (zero when fresh or unsharded); setShard cross-checks it against
	// the range the run actually computes.
	loadedShard checkpointShard

	obs    *obs.Registry
	inject *faultinject.Injector
}

// checkpointHeader is the header every checkpoint of cfg's exploration
// carries, shard fields aside.
func checkpointHeader(cfg *Config) checkpointFile {
	return checkpointFile{
		Version:  CheckpointFormatVersion,
		Library:  gatelib.LibraryKey,
		Width:    cfg.Width,
		Seed:     cfg.Seed,
		Workload: workloadSignature(cfg),
		SpecHash: cfg.SpecHash,
	}
}

// matchHeader returns a *CheckpointMismatchError naming the first header
// field of got that differs from want. Spec hashes bind only when both
// sides carry one: files written outside a spec (direct Config runs)
// have no hash and stay loadable, guarded by the weaker fields.
func matchHeader(want, got checkpointFile) error {
	for _, m := range []struct{ field, want, got string }{
		{"format version", fmt.Sprint(want.Version), fmt.Sprint(got.Version)},
		{"library key", want.Library, got.Library},
		{"width", fmt.Sprint(want.Width), fmt.Sprint(got.Width)},
		{"seed", fmt.Sprint(want.Seed), fmt.Sprint(got.Seed)},
		{"workload", want.Workload, got.Workload},
	} {
		if m.want != m.got {
			return &CheckpointMismatchError{Field: m.field, Want: m.want, Got: m.got}
		}
	}
	if want.SpecHash != "" && got.SpecHash != "" && want.SpecHash != got.SpecHash {
		return &CheckpointMismatchError{Field: "spec hash", Want: want.SpecHash, Got: got.SpecHash}
	}
	return nil
}

// matchShardHeader rejects opening a shard checkpoint from an unsharded
// run and vice versa, and any topology drift between the file and the
// run. A fresh file (got == nil is only reached with data present) must
// agree on Shards and Index; Lo/Hi/Total are validated later by setShard
// once the candidate count is known.
func matchShardHeader(want, got *checkpointShard) error {
	describe := func(s *checkpointShard) string {
		if s == nil {
			return "unsharded"
		}
		return fmt.Sprintf("shard %d/%d", s.Index, s.Shards)
	}
	if (want == nil) != (got == nil) {
		return &CheckpointMismatchError{Field: "shard topology", Want: describe(want), Got: describe(got)}
	}
	if want != nil && (want.Shards != got.Shards || want.Index != got.Index) {
		return &CheckpointMismatchError{Field: "shard topology", Want: describe(want), Got: describe(got)}
	}
	return nil
}

// setShard stamps the computed candidate range onto the checkpoint
// header before any restore or record. If the file this checkpoint was
// resumed from recorded a different range (the candidate space changed
// under the same weak workload signature), the loaded entries are
// dropped — resuming them could silently restore evaluations from
// outside this shard's slice.
func (ck *Checkpoint) setShard(s checkpointShard) {
	if ck == nil {
		return
	}
	ck.mu.Lock()
	ck.header.Shard = &s
	stale := len(ck.entries) > 0 && ck.loadedShard.Total != 0 && ck.loadedShard != s
	if stale {
		ck.entries = make(map[string]checkpointEntry)
	}
	reg := ck.obs
	loaded := ck.loadedShard
	ck.mu.Unlock()
	if stale {
		reg.Counter("dse.checkpoint.shard_range_drops").Inc()
		reg.Emit(obs.Event{Kind: "warning", Msg: fmt.Sprintf(
			"checkpoint range changed (%s, run wants %s); dropping restored entries", loaded, s)})
	}
}

// workloadSignature is the weak identity a checkpoint binds to: enough
// to reject a file recorded against a different kernel without hashing
// the whole graph.
func workloadSignature(cfg *Config) string {
	g := cfg.Workload
	if g == nil {
		return fmt.Sprintf("default/reps%d", cfg.WorkloadReps)
	}
	return fmt.Sprintf("%s/w%d/in%d/ops%d/reps%d", g.Name, g.Width, g.NumInputs(), g.NumOps(), cfg.WorkloadReps)
}

// OpenCheckpoint opens (or initializes) the checkpoint file at path for
// an exploration under cfg. A missing file yields a fresh checkpoint and
// a nil error. A header mismatch or a corrupt file also yields a usable
// fresh checkpoint, alongside a *CheckpointMismatchError or
// *CheckpointCorruptError the caller can surface as a warning — the
// stale file is overwritten at the first flush.
func OpenCheckpoint(path string, cfg Config) (*Checkpoint, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ck := &Checkpoint{
		path:    path,
		header:  checkpointHeader(&cfg),
		entries: make(map[string]checkpointEntry),
		obs:     cfg.Obs,
		inject:  cfg.Inject,
	}
	if cfg.Shard != nil {
		// Lo/Hi/Total are unknown until the candidate list exists;
		// ExploreContext fills them in via setShard.
		ck.header.Shard = &checkpointShard{Shards: cfg.Shard.Count, Index: cfg.Shard.Index}
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return ck, nil
	}
	if err != nil {
		return ck, &CheckpointCorruptError{Reason: "read", Err: err}
	}
	f, rec, derr := decodeCheckpointData(data)
	reg := ck.obs
	if rec.CRCFail {
		reg.Counter("durability.crc_fail").Inc()
	}
	if derr != nil {
		return ck, ck.quarantine(&CheckpointCorruptError{Reason: "decode", Err: derr})
	}
	if err := matchHeader(ck.header, f); err != nil {
		return ck, err
	}
	if err := matchShardHeader(ck.header.Shard, f.Shard); err != nil {
		return ck, err
	}
	if f.Shard != nil {
		ck.loadedShard = *f.Shard
	}
	for k, e := range f.Entries {
		if err := validCheckpointEntry(e); err != nil {
			return ck, ck.quarantine(&CheckpointCorruptError{Reason: fmt.Sprintf("entry %q", k), Err: err})
		}
	}
	for k, e := range f.Entries {
		ck.entries[k] = e
	}
	if rec.Torn {
		reg.Counter("durability.prefix_recovered").Inc()
		reg.Emit(obs.Event{Kind: "warning", Msg: fmt.Sprintf(
			"checkpoint %s was torn (%s); recovered %d entries from the valid prefix", path, rec.Cause, len(f.Entries))})
	}
	return ck, nil
}

// quarantine moves an irrecoverable checkpoint file out of the way (to
// <path>.corrupt, preserving the evidence) and wraps cause in a
// *durable.CorruptArtifactError — the typed, obs-visible replacement for
// silently overwriting a damaged file at the next flush. errors.As still
// finds the wrapped *CheckpointCorruptError.
func (ck *Checkpoint) quarantine(cause *CheckpointCorruptError) error {
	q := durable.Quarantine(ck.path)
	ck.obs.Counter("durability.quarantined").Inc()
	err := &durable.CorruptArtifactError{Artifact: "checkpoint", Path: ck.path, QuarantinedTo: q, Err: cause}
	ck.obs.Emit(obs.Event{Kind: "warning", Msg: err.Error()})
	return err
}

// decodeCheckpointData parses a framed checkpoint via
// durable.DecodeDocument, recovering the longest valid record prefix and
// reporting the damage in the recovery summary; the error return is
// reserved for files that yield nothing usable (no intact header
// record).
func decodeCheckpointData(data []byte) (checkpointFile, durable.Recovery, error) {
	f := checkpointFile{Entries: make(map[string]checkpointEntry)}
	rec, err := durable.DecodeDocument(data,
		func(head []byte) error { return json.Unmarshal(head, &f) },
		func(p []byte) error {
			var r checkpointRecord
			if err := json.Unmarshal(p, &r); err != nil {
				return err
			}
			f.Entries[r.Key] = r.Entry
			return nil
		})
	return f, rec, err
}

// encodeCheckpoint renders f in the framed on-disk format: one compact
// header record, then one record per entry in sorted key order —
// deterministic bytes for identical content.
func encodeCheckpoint(f checkpointFile) ([]byte, error) {
	head, err := json.Marshal(&f)
	if err != nil {
		return nil, err
	}
	buf := durable.AppendRecord(nil, head)
	keys := make([]string, 0, len(f.Entries))
	for k := range f.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p, err := json.Marshal(&checkpointRecord{Key: k, Entry: f.Entries[k]})
		if err != nil {
			return nil, err
		}
		buf = durable.AppendRecord(buf, p)
	}
	return buf, nil
}

// validCheckpointEntry rejects values no honest flush could have
// produced — the structural screen behind CheckpointCorruptError.
func validCheckpointEntry(e checkpointEntry) error {
	if e.Cycles < 0 || e.TestCost < 0 || e.FullScan < 0 || e.Spills < 0 {
		return fmt.Errorf("negative count")
	}
	for _, v := range [...]float64{e.Area, e.Clock, e.ExecTime, e.Energy} {
		if v != v || v < 0 { // NaN or negative
			return fmt.Errorf("invalid float %v", v)
		}
	}
	if e.Feasible && e.Reason != "" {
		return fmt.Errorf("feasible entry carries an infeasibility reason")
	}
	return nil
}

// Len reports how many completed evaluations the checkpoint holds.
func (ck *Checkpoint) Len() int {
	if ck == nil {
		return 0
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return len(ck.entries)
}

// bind attaches the exploration's observability registry and injector
// (ExploreContext calls it after fillDefaults, so a checkpoint opened
// before the registry existed still reports restores and flush trouble).
func (ck *Checkpoint) bind(reg *obs.Registry, inj *faultinject.Injector) {
	if ck == nil {
		return
	}
	ck.mu.Lock()
	if ck.obs == nil {
		ck.obs = reg
	}
	if ck.inject == nil {
		ck.inject = inj
	}
	ck.mu.Unlock()
}

// lookup returns the persisted evaluation for key, if any.
func (ck *Checkpoint) lookup(key string) (checkpointEntry, bool) {
	if ck == nil {
		return checkpointEntry{}, false
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	e, ok := ck.entries[key]
	return e, ok
}

// record persists one completed evaluation, rewriting the file every
// checkpointFlushEvery new entries. A flush failure is a warning, not a
// run failure: the exploration's result does not depend on the file.
func (ck *Checkpoint) record(key string, c *Candidate) {
	if ck == nil {
		return
	}
	ck.mu.Lock()
	if _, ok := ck.entries[key]; !ok {
		ck.entries[key] = toCheckpointEntry(c)
		ck.sinceFlush++
	}
	flush := ck.sinceFlush >= checkpointFlushEvery
	if flush {
		ck.sinceFlush = 0
	}
	ck.mu.Unlock()
	if flush {
		ck.Flush()
	}
}

// Flush rewrites the checkpoint file, reporting failure as an obs
// warning only: losing a mid-run checkpoint write must never kill the
// run it exists to protect. Periodic flushes skip the parent-directory
// fsync (it dominates the write cost, and an un-synced rename merely
// resurfaces the previous intact version after a power cut); use
// FlushErr where the file is a deliverable.
func (ck *Checkpoint) Flush() { ck.flushReport(false) }

// FlushErr rewrites the checkpoint file through the fully durable path
// (framed records, unique temp file, fsync, rename, directory fsync) and
// returns the write error after reporting it. Shard workers use the
// error form for their final flush: a torn interchange file must fail
// the worker — so the coordinator restarts it and the restart
// prefix-recovers — rather than hand the merge damaged input.
func (ck *Checkpoint) FlushErr() error { return ck.flushReport(true) }

func (ck *Checkpoint) flushReport(dirSync bool) error {
	if ck == nil {
		return nil
	}
	err := ck.flush(dirSync)
	if err != nil {
		ck.obs.Counter("dse.checkpoint.write_errors").Inc()
		ck.obs.Emit(obs.Event{Kind: "warning", Msg: fmt.Sprintf("checkpoint flush failed: %v", err)})
	}
	return err
}

func (ck *Checkpoint) flush(dirSync bool) error {
	// flushMu is held across snapshot + write so concurrent flushes land
	// in snapshot order and the file's entry set only ever grows.
	ck.flushMu.Lock()
	defer ck.flushMu.Unlock()
	ck.mu.Lock()
	f := ck.header
	f.Entries = make(map[string]checkpointEntry, len(ck.entries))
	for k, e := range ck.entries {
		f.Entries[k] = e
	}
	inj := ck.inject
	ck.mu.Unlock()
	data, err := encodeCheckpoint(f)
	if err != nil {
		return err
	}
	if dirSync {
		return durable.WriteFileAtomic(ck.path, data, inj, faultinject.Checkpoint)
	}
	return durable.WriteFileAtomicNoDirSync(ck.path, data, inj, faultinject.Checkpoint)
}
