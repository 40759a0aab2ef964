// Persisted candidate lists: the guided search's screen runs once per
// exploration, not once per process. The first checkpointed run (or the
// daemon coordinator, through PrepareCandidateList) writes the survivor
// genomes in promotion order as a CRC-framed durable artifact next to
// its checkpoint; every later consumer — the other shard workers, a
// resumed worker, the merge — reads the list and skips the screen.
//
// On disk the list is one header record (compact JSON: everything the
// screen's output depends on, plus the survivor count) followed by one
// record per survivor holding its canonical genome key. The file is
// named after the header, so explorations sharing a directory never
// collide. A list is all or nothing: any damage (a torn record, a CRC
// failure, a header or count mismatch, a gene out of range, a duplicate
// or non-canonical genome) quarantines the file and the run screens
// again; a prefix is never used.
package dse

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/tta"
)

// candidateListVersion is the on-disk candidate list format version.
const candidateListVersion = 1

// candidateListHeader binds a list to the screen that produced it.
type candidateListHeader struct {
	Version       int        `json:"version"`
	Library       string     `json:"library"`
	Width         int        `json:"width"`
	Seed          int64      `json:"seed"`
	Workload      string     `json:"workload"`
	SpecHash      string     `json:"spec_hash,omitempty"`
	Search        SearchSpec `json:"search"` // defaults filled in
	BusAreaPerBit float64    `json:"bus_area_per_bit"`
	BusDelay      float64    `json:"bus_delay"`
	Count         int        `json:"count"`
}

func newCandidateListHeader(cfg *Config, spec SearchSpec) candidateListHeader {
	return candidateListHeader{
		Version:       candidateListVersion,
		Library:       gatelib.LibraryKey,
		Width:         cfg.Width,
		Seed:          cfg.Seed,
		Workload:      workloadSignature(cfg),
		SpecHash:      cfg.SpecHash,
		Search:        spec,
		BusAreaPerBit: cfg.BusAreaPerBit,
		BusDelay:      cfg.BusDelay,
	}
}

// fileName is candidates-<16 hex of sha256(header without count)>.list.
// It fails only for a header JSON cannot encode (a NaN bus parameter);
// such a run screens without a list.
func (h candidateListHeader) fileName() (string, error) {
	h.Count = 0
	b, err := json.Marshal(&h)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("candidates-%x.list", sum[:8]), nil
}

func encodeCandidateList(h candidateListHeader, survivors []genome) ([]byte, error) {
	h.Count = len(survivors)
	head, err := json.Marshal(&h)
	if err != nil {
		return nil, err
	}
	buf := durable.AppendRecord(nil, head)
	for i := range survivors {
		buf = durable.AppendRecord(buf, []byte(survivors[i].key()))
	}
	return buf, nil
}

// decodeCandidateList returns the complete survivor list of data, or an
// error and no genomes: there is no partial result.
func decodeCandidateList(data []byte, want candidateListHeader) ([]genome, error) {
	payloads, _, torn := durable.ScanRecords(data)
	if torn != nil {
		return nil, torn
	}
	if len(payloads) == 0 {
		return nil, errors.New("empty file")
	}
	var h candidateListHeader
	if err := json.Unmarshal(payloads[0], &h); err != nil {
		return nil, fmt.Errorf("header record: %w", err)
	}
	count := h.Count
	h.Count, want.Count = 0, 0
	if h != want {
		return nil, fmt.Errorf("header mismatch: file has %+v, run wants %+v", h, want)
	}
	if count < 1 || count != len(payloads)-1 {
		return nil, fmt.Errorf("count mismatch: header says %d survivors, file holds %d", count, len(payloads)-1)
	}
	survivors := make([]genome, 0, count)
	seen := make(map[string]bool, count)
	for i, p := range payloads[1:] {
		g, err := parseGenomeKey(string(p))
		if err != nil {
			return nil, fmt.Errorf("survivor %d: %w", i, err)
		}
		if seen[string(p)] {
			return nil, fmt.Errorf("survivor %d: duplicate genome %s", i, p)
		}
		seen[string(p)] = true
		survivors = append(survivors, g)
	}
	return survivors, nil
}

// parseGenomeKey inverts genome.key. It accepts only in-range genes and
// only the canonical spelling: the parsed genome must render back to k.
func parseGenomeKey(k string) (genome, error) {
	bad := func(why string) (genome, error) { return genome{}, fmt.Errorf("genome %q: %s", k, why) }
	parts := strings.Split(k, "/")
	if len(parts) < 6 || len(parts) > 5+searchMaxRFs {
		return bad("malformed key")
	}
	num := func(s, prefix string) int {
		n, err := strconv.Atoi(strings.TrimPrefix(s, prefix))
		if err != nil || !strings.HasPrefix(s, prefix) {
			return -1
		}
		return n
	}
	g := genome{buses: num(parts[0], "b"), alus: num(parts[1], "a"), cmps: num(parts[2], "c")}
	if g.buses < 1 || g.buses > searchMaxBuses || g.alus < 1 || g.alus > searchMaxALUs || g.cmps < 1 || g.cmps > searchMaxCMPs {
		return bad("gene out of range")
	}
	adder := slices.IndexFunc(searchAdders, func(a gatelib.AdderKind) bool { return a.String() == parts[3] })
	assign := slices.IndexFunc(searchAssigns, func(a tta.AssignStrategy) bool { return a.String() == parts[4] })
	if adder < 0 || assign < 0 {
		return bad("gene out of range")
	}
	g.adder, g.assign = searchAdders[adder], searchAssigns[assign]
	for _, p := range parts[5:] {
		body, ok := strings.CutSuffix(strings.TrimPrefix(p, "rf"), "r")
		regs, ports, ok1 := strings.Cut(body, "x")
		in, out, ok2 := strings.Cut(ports, "w")
		rf := RFSpec{Regs: num(regs, ""), In: num(in, ""), Out: num(out, "")}
		if !ok || !ok1 || !ok2 || !strings.HasPrefix(p, "rf") || !slices.Contains(searchRegs, rf.Regs) ||
			rf.In < 1 || rf.In > searchMaxIn || rf.Out < 1 || rf.Out > searchMaxOut {
			return bad("gene out of range")
		}
		g.rfs = append(g.rfs, rf)
	}
	g.canon()
	if g.key() != k {
		return bad("not the canonical key")
	}
	return g, nil
}

// searchSurvivors returns the guided search's survivors in promotion
// order. With list directories (a checkpointed run's directory, or the
// merge's input directories) it reads the first valid list there and
// skips the screen; otherwise it screens and, when dirs is non-empty,
// publishes the list in dirs[0] for the runs that follow.
func searchSurvivors(ctx context.Context, cfg *Config, sp *obs.Span, spec SearchSpec, dirs []string) ([]genome, error) {
	if len(dirs) == 0 {
		return screenSurvivors(ctx, cfg, sp, spec)
	}
	h := newCandidateListHeader(cfg, spec)
	name, err := h.fileName()
	if err != nil {
		return screenSurvivors(ctx, cfg, sp, spec)
	}
	for _, dir := range dirs {
		if survivors, ok := loadCandidateList(cfg, filepath.Join(dir, name), h); ok {
			return survivors, nil
		}
	}
	survivors, err := screenSurvivors(ctx, cfg, sp, spec)
	if err != nil {
		return nil, err
	}
	// The write is atomic, so processes publishing the same list at once
	// each land whole, identical bytes.
	path := filepath.Join(dirs[0], name)
	data, err := encodeCandidateList(h, survivors)
	if err == nil {
		err = durable.WriteFileAtomic(path, data, cfg.Inject, faultinject.CandidateList)
	}
	if err != nil {
		cfg.Obs.Counter("dse.search.list_write_errors").Inc()
		cfg.Obs.Emit(obs.Event{Kind: "warning", Msg: fmt.Sprintf("candidate list %s not written: %v", path, err)})
	}
	return survivors, nil
}

// loadCandidateList reads the list at path. A missing or unreadable
// file is a plain miss; a file that fails any check is quarantined,
// counted and warned about, and reported as a miss so the caller
// screens again.
func loadCandidateList(cfg *Config, path string, want candidateListHeader) ([]genome, bool) {
	reg := cfg.Obs
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	survivors, err := decodeCandidateList(data, want)
	if err != nil {
		if torn := (*durable.TornRecordError)(nil); errors.As(err, &torn) && torn.Reason == "crc mismatch" {
			reg.Counter("durability.crc_fail").Inc()
		}
		reg.Counter("durability.quarantined").Inc()
		qerr := &durable.CorruptArtifactError{Artifact: "candidate list", Path: path, QuarantinedTo: durable.Quarantine(path), Err: err}
		reg.Emit(obs.Event{Kind: "warning", Msg: qerr.Error() + "; screening again"})
		return nil, false
	}
	reg.Counter("dse.search.list_loaded").Inc()
	reg.Emit(obs.Event{Kind: "search", Msg: fmt.Sprintf("loaded %d survivors from candidate list %s; screen skipped", len(survivors), path)})
	return survivors, true
}

// PrepareCandidateList produces cfg's candidate list in dir once, up
// front: every checkpointed run of the same guided search with its
// checkpoint in dir (shard workers, resumes) and every merge of shard
// files in dir then reads it instead of screening. A valid list already
// in dir is reused; a config without Search has no list. The error is
// the screen's; a list that could not be written is counted on
// dse.search.list_write_errors, and each later run screens for itself.
func PrepareCandidateList(ctx context.Context, cfg Config, dir string) error {
	if cfg.Search == nil {
		return nil
	}
	if err := cfg.fillDefaults(); err != nil {
		return err
	}
	root := cfg.Obs.StartSpan("dse")
	defer root.End()
	_, err := produceArchs(ctx, &cfg, root, []string{dir})
	return err
}
