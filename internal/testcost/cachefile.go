// Warm-start annotation cache: the annotator's back-annotated pattern
// counts persisted as versioned JSON, so a repeated exploration over the
// same library generation, width and seed skips every gate-level ATPG run
// (component and socket alike) and goes straight to the cost model.
//
// The file is keyed by everything that determines an annotation's value:
// the cache format version, the gate-level library generation
// (gatelib.LibraryKey), the data-path width, the ATPG seed and the march
// algorithm. A header mismatch invalidates the whole file — Load reports
// it as a *CacheMismatchError and leaves the annotator cold, never mixing
// stale entries into a fresh run.
//
// On disk the cache uses the same CRC32C record framing as dse
// checkpoints (package durable): one compact header record, then one
// record per annotation in sorted key order, written through an
// fsync-before-rename atomic path. A torn or bit-flipped file warm-loads
// its longest valid record prefix (the cache is an optimization — a
// shorter prefix just means a few re-measured annotations); files with
// no usable prefix load cold with a typed error, and LoadFile quarantines
// them to *.corrupt. Files in the pre-framing whole-document format are
// no longer read: they take the corrupt-file path and load cold.
package testcost

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"

	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/gatelib"
	"repro/internal/obs"
)

// CacheFormatVersion is the on-disk format version. Bump it whenever the
// entry layout or the meaning of a field changes.
const CacheFormatVersion = 1

// cacheFile is the serialized form of an annotator's cache.
type cacheFile struct {
	Version int    `json:"version"`
	Library string `json:"library"`
	Width   int    `json:"width"`
	Seed    int64  `json:"seed"`
	March   string `json:"march"`

	// Sockets carries the socket-library annotations (input, output) so a
	// warm start skips the lazy socket ATPG too.
	Sockets *socketCache `json:"sockets,omitempty"`

	// Entries maps annotation-cache keys (e.g. "alu/16/ripple") to their
	// back-annotated values, decoded from the entry records; it is never
	// part of the header record.
	Entries map[string]cacheEntry `json:"-"`
}

// cacheRecord is one framed annotation record: the cache key and its
// value, compact JSON on a single line.
type cacheRecord struct {
	Key   string     `json:"k"`
	Entry cacheEntry `json:"e"`
}

// cacheEntry is one persisted annotation.
type cacheEntry struct {
	NP       int     `json:"np"`
	NL       int     `json:"nl"`
	Coverage float64 `json:"coverage"`
	ScanNP   int     `json:"scan_np"`
	Area     float64 `json:"area"`
	Delay    float64 `json:"delay"`
}

// socketCache persists the two socket annotations.
type socketCache struct {
	In  cacheEntry `json:"in"`
	Out cacheEntry `json:"out"`
}

func toEntry(an annotation) cacheEntry {
	return cacheEntry{NP: an.np, NL: an.nl, Coverage: an.coverage, ScanNP: an.scanNP, Area: an.area, Delay: an.delay}
}

func fromEntry(e cacheEntry) annotation {
	return annotation{np: e.NP, nl: e.NL, coverage: e.Coverage, scanNP: e.ScanNP, area: e.Area, delay: e.Delay}
}

// CacheMismatchError reports a structurally valid cache file whose header
// does not match the loading annotator — a stale or foreign cache. The
// annotator is left unchanged; callers typically warn and start cold.
type CacheMismatchError struct {
	Field string // header field that differs
	Want  string // the annotator's value
	Got   string // the file's value
}

func (e *CacheMismatchError) Error() string {
	return fmt.Sprintf("testcost: annotation cache %s mismatch: file has %s, annotator wants %s", e.Field, e.Got, e.Want)
}

// CacheCorruptError reports a warm-start cache file that could not be
// decoded or failed structural validation — truncation, bit flips, or
// any IO failure while reading. The annotator is left unchanged; callers
// (ttadse -cache) typically log a warning and continue cold, rewriting
// the file after the run.
type CacheCorruptError struct {
	Reason string // what failed ("decode", "entry alu/16/ripple", ...)
	Err    error  // underlying error, when one exists
}

func (e *CacheCorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("testcost: corrupt annotation cache (%s): %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("testcost: corrupt annotation cache (%s)", e.Reason)
}

func (e *CacheCorruptError) Unwrap() error { return e.Err }

// validEntry rejects values no honest Save could have produced — the
// cheap structural screen behind CacheCorruptError. JSON bit flips that
// keep the syntax valid usually land here (negative counts, NaN/Inf
// floats, coverage outside [0, 1]).
func validEntry(e cacheEntry) error {
	if e.NP < 0 || e.NL < 0 || e.ScanNP < 0 {
		return fmt.Errorf("negative count (np=%d nl=%d scan_np=%d)", e.NP, e.NL, e.ScanNP)
	}
	for _, v := range [...]float64{e.Coverage, e.Area, e.Delay} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite float")
		}
	}
	if e.Coverage < 0 || e.Coverage > 1 {
		return fmt.Errorf("coverage %v outside [0, 1]", e.Coverage)
	}
	if e.Area < 0 || e.Delay < 0 {
		return fmt.Errorf("negative area/delay")
	}
	return nil
}

// Save serializes the annotator's annotation cache (socket annotations
// included — they are forced if not yet computed) as versioned JSON.
// Degraded annotations (analytical bounds from an exhausted ATPG budget)
// are deliberately not persisted: a later run with a larger or absent
// budget must re-measure them rather than warm-start from a bound. Call
// Save after the evaluations sharing the annotator have finished; Save
// must not run concurrently with Load.
func (a *Annotator) Save(w io.Writer) error {
	if err := a.Inject.Hit(faultinject.CacheWrite); err != nil {
		return fmt.Errorf("testcost: writing annotation cache: %w", err)
	}
	data, err := a.encodeCache()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// encodeCache renders the annotator's cache in the framed on-disk
// format: one compact header record (sockets included — they are forced
// if not yet computed), then one record per annotation in sorted key
// order — deterministic bytes for identical content.
func (a *Annotator) encodeCache() ([]byte, error) {
	if err := a.sockets(); err != nil {
		return nil, err
	}
	f := cacheFile{
		Version: CacheFormatVersion,
		Library: gatelib.LibraryKey,
		Width:   a.Width,
		Seed:    a.Seed,
		March:   a.March.String(),
		Sockets: &socketCache{In: toEntry(a.sockIn), Out: toEntry(a.sockOut)},
	}
	head, err := json.Marshal(&f)
	if err != nil {
		return nil, err
	}
	buf := durable.AppendRecord(nil, head)
	a.mu.Lock()
	keys := make([]string, 0, len(a.cache))
	for k, an := range a.cache {
		if an.degraded {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p, err := json.Marshal(&cacheRecord{Key: k, Entry: toEntry(a.cache[k])})
		if err != nil {
			a.mu.Unlock()
			return nil, err
		}
		buf = durable.AppendRecord(buf, p)
	}
	a.mu.Unlock()
	return buf, nil
}

// Load populates the annotation cache from a warm-start file written by
// Save. On a header mismatch (format version, library generation, width,
// seed or march algorithm) it returns a *CacheMismatchError; on a file
// that cannot be decoded or fails structural validation (truncation, bit
// flips, IO errors) a *CacheCorruptError. In both cases the annotator is
// unchanged — stale or damaged entries never mix into a fresh run.
// Entries merge into the live cache without overwriting existing keys.
// Call Load before sharing the annotator across goroutines.
func (a *Annotator) Load(r io.Reader) error {
	if err := a.Inject.Hit(faultinject.CacheRead); err != nil {
		return &CacheCorruptError{Reason: "read", Err: err}
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return &CacheCorruptError{Reason: "read", Err: err}
	}
	f, rec, derr := decodeCacheData(data)
	if rec.CRCFail {
		a.Obs.Counter("durability.crc_fail").Inc()
	}
	if derr != nil {
		return &CacheCorruptError{Reason: "decode", Err: derr}
	}
	for _, m := range []struct{ field, want, got string }{
		{"format version", fmt.Sprint(CacheFormatVersion), fmt.Sprint(f.Version)},
		{"library key", gatelib.LibraryKey, f.Library},
		{"width", fmt.Sprint(a.Width), fmt.Sprint(f.Width)},
		{"seed", fmt.Sprint(a.Seed), fmt.Sprint(f.Seed)},
		{"march algorithm", a.March.String(), f.March},
	} {
		if m.want != m.got {
			return &CacheMismatchError{Field: m.field, Want: m.want, Got: m.got}
		}
	}
	for k, e := range f.Entries {
		if err := validEntry(e); err != nil {
			return &CacheCorruptError{Reason: fmt.Sprintf("entry %q", k), Err: err}
		}
	}
	if f.Sockets != nil {
		if err := validEntry(f.Sockets.In); err != nil {
			return &CacheCorruptError{Reason: "socket in", Err: err}
		}
		if err := validEntry(f.Sockets.Out); err != nil {
			return &CacheCorruptError{Reason: "socket out", Err: err}
		}
	}
	loaded := 0
	a.mu.Lock()
	for k, e := range f.Entries {
		if _, ok := a.cache[k]; !ok {
			a.cache[k] = fromEntry(e)
			loaded++
		}
	}
	a.mu.Unlock()
	if f.Sockets != nil && !a.sockDone {
		a.sockIn = fromEntry(f.Sockets.In)
		a.sockOut = fromEntry(f.Sockets.Out)
		a.sockNP = a.sockIn.np
		if a.sockOut.np > a.sockNP {
			a.sockNP = a.sockOut.np
		}
		a.sockWarm = true
	}
	if rec.Torn {
		a.Obs.Counter("durability.prefix_recovered").Inc()
		a.Obs.Emit(obs.Event{Kind: "warning", Msg: fmt.Sprintf(
			"annotation cache was torn (%s); warm-loaded %d entries from the valid prefix", rec.Cause, loaded)})
	}
	a.Obs.Counter("testcost.cache.loaded").Add(int64(loaded))
	return nil
}

// decodeCacheData parses a framed cache via durable.DecodeDocument; see
// decodeCheckpointData in internal/dse for the twin.
func decodeCacheData(data []byte) (cacheFile, durable.Recovery, error) {
	f := cacheFile{Entries: make(map[string]cacheEntry)}
	rec, err := durable.DecodeDocument(data,
		func(head []byte) error { return json.Unmarshal(head, &f) },
		func(p []byte) error {
			var r cacheRecord
			if err := json.Unmarshal(p, &r); err != nil {
				return err
			}
			f.Entries[r.Key] = r.Entry
			return nil
		})
	return f, rec, err
}

// SaveFile writes the cache to path through the crash-safe atomic path
// (unique temp file, fsync, rename, directory fsync): a crash mid-save
// leaves the previous cache intact, never a torn one.
func (a *Annotator) SaveFile(path string) error {
	data, err := a.encodeCache()
	if err != nil {
		return err
	}
	if err := durable.WriteFileAtomic(path, data, a.Inject, faultinject.CacheWrite); err != nil {
		return fmt.Errorf("testcost: writing annotation cache: %w", err)
	}
	return nil
}

// LoadFile reads a warm-start cache from path (see Load). A missing file
// is reported via the usual fs.ErrNotExist wrapping, so callers can treat
// it as an ordinary cold start. A file Load rejects as corrupt (not a
// read failure — those may be transient) is quarantined to *.corrupt and
// reported as a *durable.CorruptArtifactError wrapping the
// *CacheCorruptError, so the evidence survives while the run rewrites a
// fresh cache.
func (a *Annotator) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = a.Load(f)
	f.Close()
	var cc *CacheCorruptError
	if errors.As(err, &cc) && cc.Reason != "read" {
		q := durable.Quarantine(path)
		a.Obs.Counter("durability.quarantined").Inc()
		qerr := &durable.CorruptArtifactError{Artifact: "annotation cache", Path: path, QuarantinedTo: q, Err: cc}
		a.Obs.Emit(obs.Event{Kind: "warning", Msg: qerr.Error()})
		return qerr
	}
	return err
}

// MergeFiles unions the per-shard cache files of a sharded exploration
// into this annotator: each path is loaded in order with Load's
// never-overwrite rule (existing annotations win, so the seed cache the
// shards started from stays authoritative), and missing files are
// skipped — a shard that annotated nothing new may not have written one.
// A corrupt or mismatched file does not stop the union: every good file
// is still loaded, and the bad files' typed errors come back joined. It
// returns how many files were actually loaded.
func (a *Annotator) MergeFiles(paths ...string) (int, error) {
	loaded := 0
	var errs []error
	for _, path := range paths {
		err := a.LoadFile(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
		case err != nil:
			errs = append(errs, err)
		default:
			loaded++
		}
	}
	return loaded, errors.Join(errs...)
}
