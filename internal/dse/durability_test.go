package dse

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/obs"
)

// recordedCheckpoint runs a checkpointed two-candidate exploration and
// returns the reference result plus the on-disk checkpoint bytes.
func recordedCheckpoint(t *testing.T) (Config, *Result, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dse.ckpt")
	cfg := twoCandConfig(t)
	ck, err := OpenCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = ck
	ref, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Len() != 2 {
		t.Fatalf("checkpoint holds %d entries, want 2", ck.Len())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = nil
	return cfg, ref, data
}

// recordBoundaries returns the byte offsets at which a framed file's
// record prefix ends cleanly — truncation exactly there is
// indistinguishable from an honestly shorter checkpoint.
func recordBoundaries(data []byte) map[int]bool {
	payloads, _, torn := durable.ScanRecords(data)
	if torn != nil {
		panic("recordBoundaries on damaged data")
	}
	b := map[int]bool{}
	off := 0
	var buf []byte
	for _, p := range payloads {
		buf = durable.AppendRecord(buf[:0], p)
		off += len(buf)
		b[off] = true
	}
	return b
}

// TestCheckpointTruncationSweep truncates a recorded checkpoint at every
// byte offset: every open must either prefix-recover or quarantine with
// a typed error, never panic, and never come back cold without an obs
// counter (except at exact record boundaries, where the shorter file is
// a valid checkpoint in its own right).
func TestCheckpointTruncationSweep(t *testing.T) {
	cfg, ref, data := recordedCheckpoint(t)
	bounds := recordBoundaries(data)
	headerEnd := len(data)
	for b := range bounds {
		headerEnd = min(headerEnd, b)
	}
	full := 2

	for cut := 0; cut <= len(data); cut++ {
		p := filepath.Join(t.TempDir(), "ck")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		c := cfg
		c.Obs = reg
		ck, err := OpenCheckpoint(p, c)
		if ck == nil {
			t.Fatalf("cut %d: nil checkpoint", cut)
		}
		if err != nil {
			var ca *durable.CorruptArtifactError
			var cc *CheckpointCorruptError
			if !errors.As(err, &ca) || !errors.As(err, &cc) {
				t.Fatalf("cut %d: err %T (%v), want CorruptArtifactError wrapping CheckpointCorruptError", cut, err, err)
			}
			if ck.Len() != 0 {
				t.Fatalf("cut %d: corrupt open kept %d entries", cut, ck.Len())
			}
			if reg.Counter("durability.quarantined").Value() == 0 {
				t.Fatalf("cut %d: quarantine without counter", cut)
			}
			if ca.QuarantinedTo != "" {
				if _, serr := os.Stat(p); !os.IsNotExist(serr) {
					t.Fatalf("cut %d: quarantined file still at original path", cut)
				}
			}
			continue
		}
		if ck.Len() > full {
			t.Fatalf("cut %d: recovered %d entries from a %d-entry file", cut, ck.Len(), full)
		}
		// A cut inside the header record leaves nothing to resume from,
		// even where the surviving bytes are a complete JSON document.
		if cut < headerEnd {
			t.Fatalf("cut %d: a header record torn at byte %d of %d loaded instead of quarantining", cut, cut, headerEnd)
		}
		recovered := reg.Counter("durability.prefix_recovered").Value()
		if cut < len(data) && !bounds[cut] && recovered == 0 {
			t.Fatalf("cut %d: torn load with no prefix_recovered counter", cut)
		}
		if cut == len(data) && (recovered != 0 || ck.Len() != full) {
			t.Fatalf("intact file: recovered=%d len=%d", recovered, ck.Len())
		}
	}

	// A tear through the last record must resume to the reference result
	// from the surviving prefix.
	p := filepath.Join(t.TempDir(), "ck")
	if err := os.WriteFile(p, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := cfg
	c.Obs = reg
	ck, err := OpenCheckpoint(p, c)
	if err != nil {
		t.Fatalf("torn tail: %v", err)
	}
	if ck.Len() != full-1 {
		t.Fatalf("torn tail recovered %d entries, want %d", ck.Len(), full-1)
	}
	c.Checkpoint = ck
	res, err := ExploreContext(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, res)
	if reg.Counter("dse.checkpoint.restored").Value() != int64(full-1) {
		t.Fatalf("restored %d, want %d", reg.Counter("dse.checkpoint.restored").Value(), full-1)
	}
}

// legacyCheckpoint renders f in the pre-CRC whole-document format: one
// indented JSON object with the entries inline.
func legacyCheckpoint(t testing.TB, f checkpointFile) []byte {
	t.Helper()
	doc, err := json.MarshalIndent(struct {
		checkpointFile
		Entries map[string]checkpointEntry `json:"entries"`
	}{f, f.Entries}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(doc, '\n')
}

// TestCheckpointLegacyFormatRoundTrip: a whole-document pre-CRC file is
// no longer read. OpenCheckpoint quarantines it to *.corrupt like any
// other file without an intact header record, and the cold run that
// follows is byte-identical to a run that never saw it, down to the
// checkpoint bytes it writes.
func TestCheckpointLegacyFormatRoundTrip(t *testing.T) {
	cfg, ref, framed := recordedCheckpoint(t)
	f, rec, err := decodeCheckpointData(framed)
	if err != nil || rec.Torn {
		t.Fatalf("decode framed: %v (recovery %+v)", err, rec)
	}
	legacy := legacyCheckpoint(t, f)
	p := filepath.Join(t.TempDir(), "legacy.ckpt")
	if err := os.WriteFile(p, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	c := cfg
	c.Obs = reg
	ck, err := OpenCheckpoint(p, c)
	var ca *durable.CorruptArtifactError
	var cc *CheckpointCorruptError
	if !errors.As(err, &ca) || !errors.As(err, &cc) {
		t.Fatalf("legacy open: err %T (%v), want CorruptArtifactError wrapping CheckpointCorruptError", err, err)
	}
	if ca.QuarantinedTo != p+".corrupt" {
		t.Fatalf("quarantined to %q, want %q", ca.QuarantinedTo, p+".corrupt")
	}
	if kept, err := os.ReadFile(ca.QuarantinedTo); err != nil || !bytes.Equal(kept, legacy) {
		t.Fatalf("quarantined evidence differs from the legacy file (read err %v)", err)
	}
	if ck.Len() != 0 {
		t.Fatalf("legacy open kept %d entries", ck.Len())
	}
	if got := reg.Counter("durability.quarantined").Value(); got != 1 {
		t.Fatalf("durability.quarantined = %d, want 1", got)
	}

	c.Checkpoint = ck
	res, err := ExploreContext(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, res)
	if got := reg.Counter("dse.checkpoint.restored").Value(); got != 0 {
		t.Fatalf("dse.checkpoint.restored = %d, want 0 (cold run)", got)
	}
	written, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, framed) {
		t.Fatalf("cold run wrote a different checkpoint:\n%q\nvs\n%q", written, framed)
	}
}

// TestCheckpointQuarantine feeds OpenCheckpoint an irrecoverable file:
// the open must return the typed quarantine error, move the file to
// *.corrupt, count it, and hand back a usable fresh checkpoint.
func TestCheckpointQuarantine(t *testing.T) {
	p := filepath.Join(t.TempDir(), "dse.ckpt")
	if err := os.WriteFile(p, []byte("{ this is not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := twoCandConfig(t)
	cfg.Obs = reg
	ck, err := OpenCheckpoint(p, cfg)
	var ca *durable.CorruptArtifactError
	if !errors.As(err, &ca) {
		t.Fatalf("err = %T (%v), want *durable.CorruptArtifactError", err, err)
	}
	var cc *CheckpointCorruptError
	if !errors.As(err, &cc) {
		t.Fatal("CorruptArtifactError does not wrap CheckpointCorruptError")
	}
	if ca.QuarantinedTo != p+".corrupt" {
		t.Fatalf("quarantined to %q", ca.QuarantinedTo)
	}
	if _, serr := os.Stat(ca.QuarantinedTo); serr != nil {
		t.Fatalf("quarantine file: %v", serr)
	}
	if _, serr := os.Stat(p); !os.IsNotExist(serr) {
		t.Fatal("corrupt file still at original path")
	}
	if reg.Counter("durability.quarantined").Value() != 1 {
		t.Fatalf("durability.quarantined = %d, want 1", reg.Counter("durability.quarantined").Value())
	}
	if ck == nil || ck.Len() != 0 {
		t.Fatalf("no usable fresh checkpoint: %v", ck)
	}
	// The fresh checkpoint writes to the original path again.
	cfg.Checkpoint = ck
	if _, err := ExploreContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if _, serr := os.Stat(p); serr != nil {
		t.Fatalf("fresh checkpoint not rewritten: %v", serr)
	}
}

// TestCheckpointBitFlipCRC flips one payload byte inside a recorded
// checkpoint: the CRC must catch it (durability.crc_fail), and the load
// must keep exactly the records before the damage.
func TestCheckpointBitFlipCRC(t *testing.T) {
	cfg, _, data := recordedCheckpoint(t)
	// Flip a byte in the middle of the last record's payload.
	mut := append([]byte(nil), data...)
	last := bytes.LastIndexByte(mut[:len(mut)-1], '\n') // start of final record
	mut[last+10] ^= 0x20
	p := filepath.Join(t.TempDir(), "ck")
	if err := os.WriteFile(p, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := cfg
	c.Obs = reg
	ck, err := OpenCheckpoint(p, c)
	if err != nil {
		t.Fatalf("bit-flipped open: %v", err)
	}
	if ck.Len() != 1 {
		t.Fatalf("recovered %d entries, want 1", ck.Len())
	}
	if reg.Counter("durability.crc_fail").Value() == 0 {
		t.Fatal("no durability.crc_fail count")
	}
	if reg.Counter("durability.prefix_recovered").Value() == 0 {
		t.Fatal("no durability.prefix_recovered count")
	}
}

// FuzzOpenCheckpoint mirrors FuzzAnnotatorLoad for the checkpoint layer:
// arbitrary bytes must never panic the open — every outcome is a clean
// load, a typed mismatch, or a typed quarantine leaving a fresh usable
// checkpoint.
func FuzzOpenCheckpoint(f *testing.F) {
	cfg, err := DefaultConfig()
	if err != nil {
		f.Fatal(err)
	}
	cfg.Width = 8
	cfg.Buses = []int{2}
	cfg.ALUCounts = []int{1}
	cfg.CMPCounts = []int{1}
	cfg.RFSets = [][]RFSpec{{{16, 2, 2}, {16, 1, 2}}}
	cfg.Annotator = nil
	if err := cfg.fillDefaults(); err != nil {
		f.Fatal(err)
	}

	// Seed corpus: a real framed checkpoint (built by the real writer),
	// its truncations and a bit-flip, a pre-CRC whole-document file, and
	// assorted garbage.
	seedPath := filepath.Join(f.TempDir(), "seed.ckpt")
	ck, err := OpenCheckpoint(seedPath, cfg)
	if err != nil {
		f.Fatal(err)
	}
	ck.entries["k1|a"] = checkpointEntry{Feasible: true, Area: 100, Cycles: 7, Clock: 2.5, ExecTime: 17.5, TestCost: 42, FullScan: 40, Energy: 1.5}
	ck.entries["k2|b"] = checkpointEntry{Reason: "infeasible: no route"}
	if err := ck.FlushErr(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(seed)-1])
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x08
	f.Add(flipped)
	if lf, _, err := decodeCheckpointData(seed); err == nil {
		f.Add(legacyCheckpoint(f, lf))
	}
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte("not a checkpoint at all"))
	f.Add([]byte(fmt.Sprintf("{\"x\":1} #c=%08x\n", durable.Checksum([]byte(`{"x":1}`)))))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fz.ckpt")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := OpenCheckpoint(p, cfg)
		if ck == nil {
			t.Fatal("nil checkpoint")
		}
		if err == nil {
			return // clean load (fresh or prefix-recovered)
		}
		var mm *CheckpointMismatchError
		var cc *CheckpointCorruptError
		if !errors.As(err, &mm) && !errors.As(err, &cc) {
			t.Fatalf("untyped error %T: %v", err, err)
		}
		if errors.As(err, &cc) && ck.Len() != 0 {
			t.Fatalf("corrupt open kept %d entries", ck.Len())
		}
		var ca *durable.CorruptArtifactError
		if errors.As(err, &ca) && ca.QuarantinedTo != "" {
			if _, serr := os.Stat(p); !os.IsNotExist(serr) {
				t.Fatal("quarantined file still present at original path")
			}
		}
	})
}
