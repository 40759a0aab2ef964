// Package durable is the engine's crash-safe persistence layer: every
// artifact that crosses a process boundary (dse checkpoints, which are
// also the shard interchange files, the guided search's candidate
// lists, and the testcost warm-annotation cache) is written through it
// and read back through it.
//
// Two primitives:
//
//   - Record framing. An artifact is a sequence of newline-delimited
//     records, each a single-line payload followed by a CRC32C
//     (Castagnoli) trailer over the payload bytes. A reader walks the
//     records in order and stops at the first damage — a missing
//     newline, a malformed trailer, a checksum mismatch — so a torn or
//     bit-flipped file yields its longest valid record prefix instead
//     of nothing. ScanRecords reports exactly how the walk ended;
//     callers decide whether a prefix is usable (a checkpoint resumes
//     from it) or fatal (a merge demands completeness).
//
//   - Atomic, synced file replacement. WriteFileAtomic writes to a
//     unique temp file in the destination directory, fsyncs the file,
//     renames it over the destination and fsyncs the parent directory —
//     the write either fully happens or leaves the old file untouched,
//     even across power loss. The fault-injection hook lets chaos tests
//     land a deliberately torn prefix at the final path (ModeTornWrite),
//     which is the disk state the record framing exists to survive.
//
// Files that cannot yield even a valid prefix are quarantined: renamed
// to <path>.corrupt and reported as a *CorruptArtifactError, a typed
// error that carries the artifact kind, the quarantine destination and
// the underlying cause — so operators see corruption in metrics and on
// disk, never as a silently overwritten file or a lost stderr line.
package durable

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
)

// castagnoli is the CRC32C polynomial table; CRC32C is hardware-
// accelerated on amd64/arm64, so the per-record cost on the checkpoint
// hot path is a table-free instruction stream.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// trailerMark separates a record's payload from its checksum trailer.
// The payload must not contain a newline; the trailer is always exactly
// len(trailerMark)+8 bytes ("…payload #c=1a2b3c4d\n").
const trailerMark = " #c="

// trailerLen is the byte length of a record trailer without the newline.
const trailerLen = len(trailerMark) + 8

// Checksum returns the CRC32C of payload — exported so tests and tools
// can frame records by hand.
func Checksum(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli)
}

// AppendRecord appends one framed record (payload, trailer, newline) to
// dst and returns the extended slice. The payload must be a single line;
// embedded newlines would desynchronize the reader and are rejected by
// ScanRecords on the way back in.
func AppendRecord(dst, payload []byte) []byte {
	dst = append(dst, payload...)
	dst = append(dst, trailerMark...)
	dst = append(dst, fmt.Sprintf("%08x", Checksum(payload))...)
	return append(dst, '\n')
}

// TornRecordError reports where and why a record walk stopped before the
// end of the data. Reason is one of "no newline" (torn tail), "no
// trailer" (framing damage) or "crc mismatch" (bit rot); Offset is the
// byte position of the first damaged record.
type TornRecordError struct {
	Reason string
	Offset int
}

func (e *TornRecordError) Error() string {
	return fmt.Sprintf("durable: damaged record at byte %d (%s)", e.Offset, e.Reason)
}

// ScanRecords walks data record by record and returns every payload up
// to the first damage. A nil torn return means the data was fully valid;
// otherwise torn describes the first damaged record and dropped is how
// many bytes after the valid prefix were discarded. The payload slices
// alias data.
func ScanRecords(data []byte) (payloads [][]byte, dropped int, torn *TornRecordError) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return payloads, len(data) - off, &TornRecordError{Reason: "no newline", Offset: off}
		}
		line := data[off : off+nl]
		if len(line) < trailerLen {
			return payloads, len(data) - off, &TornRecordError{Reason: "no trailer", Offset: off}
		}
		payload, trailer := line[:len(line)-trailerLen], line[len(line)-trailerLen:]
		if string(trailer[:len(trailerMark)]) != trailerMark {
			return payloads, len(data) - off, &TornRecordError{Reason: "no trailer", Offset: off}
		}
		var want uint32
		if _, err := fmt.Sscanf(string(trailer[len(trailerMark):]), "%08x", &want); err != nil {
			return payloads, len(data) - off, &TornRecordError{Reason: "no trailer", Offset: off}
		}
		if Checksum(payload) != want {
			return payloads, len(data) - off, &TornRecordError{Reason: "crc mismatch", Offset: off}
		}
		payloads = append(payloads, payload)
		off += nl + 1
	}
	return payloads, 0, nil
}

// WriteFileAtomic replaces path with data, surviving a crash at any
// instant: the bytes are written to a unique temp file in path's
// directory, fsynced, renamed over path, and the directory entry is
// fsynced too. On any failure the previous file (if any) is intact and
// the temp file is removed.
//
// inj/point are the fault-injection hook: a firing ModeTornWrite plan
// makes this call write only the plan's prefix fraction of data straight
// to path — non-atomically, simulating the torn on-disk state a real
// tear leaves — and return the *TornWriteError. Other injected errors
// fail the write without touching path. A nil injector costs one
// pointer test.
func WriteFileAtomic(path string, data []byte, inj *faultinject.Injector, point faultinject.Point) error {
	return writeFileAtomic(path, data, inj, point, true)
}

// WriteFileAtomicNoDirSync is WriteFileAtomic minus the final parent-
// directory fsync — for high-frequency rewrites of one path (periodic
// checkpoint flushes), where the directory fsync dominates the write
// cost and losing a rename's directory entry to a power cut merely
// resurfaces the previous intact version of the file. The payload fsync
// before the rename stays: a rename must never land ahead of the data
// it names. Writers of record (a worker's final flush, a daemon drain)
// should use the full WriteFileAtomic.
func WriteFileAtomicNoDirSync(path string, data []byte, inj *faultinject.Injector, point faultinject.Point) error {
	return writeFileAtomic(path, data, inj, point, false)
}

func writeFileAtomic(path string, data []byte, inj *faultinject.Injector, point faultinject.Point, dirSync bool) error {
	if err := inj.Hit(point); err != nil {
		var torn *faultinject.TornWriteError
		if errors.As(err, &torn) {
			n := int(float64(len(data)) * torn.Frac)
			// Deliberately non-atomic: the tear must land at the final
			// path for the recovery path to have something to recover.
			_ = os.WriteFile(path, data[:n], 0o644)
		}
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if dirSync {
		syncDir(dir)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Best-effort: some filesystems (and most non-Linux platforms)
// reject directory fsync, and the rename itself already happened — the
// durability loss is bounded to the metadata, so errors are ignored.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Recovery describes how DecodeDocument read a file: whether (and why)
// only a record prefix survived.
type Recovery struct {
	Torn    bool   // only a record prefix was valid
	CRCFail bool   // the damage was a checksum mismatch (bit rot)
	Cause   string // human-readable damage description, "" when clean
}

// DecodeDocument parses framed data via caller-supplied parsers: header
// takes the first record, record each subsequent one. Damage — a torn
// tail, a checksum failure, or a checksum-valid record the record
// parser rejects — stops the walk and is reported in the Recovery; the
// parsed prefix stands. The error return is reserved for data that
// yields nothing usable: no intact first record (which includes any
// file that is not framed at all, such as a pre-CRC whole-document
// file) or a header record the header parser rejects.
func DecodeDocument(data []byte, header, record func([]byte) error) (Recovery, error) {
	var rec Recovery
	payloads, _, torn := ScanRecords(data)
	if torn != nil {
		rec.Torn = true
		rec.CRCFail = torn.Reason == "crc mismatch"
		rec.Cause = torn.Error()
	}
	if len(payloads) == 0 {
		if torn == nil {
			return rec, errors.New("empty file")
		}
		return rec, fmt.Errorf("no intact record (%s)", rec.Cause)
	}
	if err := header(payloads[0]); err != nil {
		// A checksum-valid but unparseable header is a writer bug, not
		// tearing — nothing to resume from.
		return rec, fmt.Errorf("header record: %w", err)
	}
	for _, p := range payloads[1:] {
		if err := record(p); err != nil {
			rec.Torn = true
			rec.Cause = fmt.Sprintf("unparseable entry record: %v", err)
			break
		}
	}
	return rec, nil
}

// CorruptArtifactError reports a persisted artifact that could not yield
// even a valid record prefix and was quarantined (renamed to
// QuarantinedTo) so the evidence survives while the writer starts fresh.
// It wraps the artifact-specific typed error (e.g.
// *dse.CheckpointCorruptError), so existing errors.As call sites keep
// matching.
type CorruptArtifactError struct {
	Artifact      string // "checkpoint", "annotation cache", ...
	Path          string
	QuarantinedTo string // empty if the quarantine rename itself failed
	Err           error
}

func (e *CorruptArtifactError) Error() string {
	if e.QuarantinedTo != "" {
		return fmt.Sprintf("durable: corrupt %s %s quarantined to %s: %v", e.Artifact, e.Path, e.QuarantinedTo, e.Err)
	}
	return fmt.Sprintf("durable: corrupt %s %s (quarantine failed): %v", e.Artifact, e.Path, e.Err)
}

func (e *CorruptArtifactError) Unwrap() error { return e.Err }

// Quarantine renames path to path+".corrupt" (replacing any previous
// quarantine of the same file) and returns the destination. A failed
// rename returns an empty destination; the caller's CorruptArtifactError
// then records that the evidence could not be preserved.
func Quarantine(path string) string {
	dst := path + ".corrupt"
	if err := os.Rename(path, dst); err != nil {
		return ""
	}
	return dst
}
