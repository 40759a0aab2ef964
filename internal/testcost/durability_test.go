package testcost

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/tta"
)

// TestCacheTornPrefixRecovery tears the tail off a saved cache: the load
// must keep the valid record prefix (warm entries), count the recovery,
// and not error — a shorter cache is just a slightly colder start.
func TestCacheTornPrefixRecovery(t *testing.T) {
	_, blob := coldAnnotator(t)
	a := NewAnnotator(8, 7)
	reg := obs.NewRegistry()
	a.Obs = reg
	if err := a.Load(bytes.NewReader(blob[:len(blob)-5])); err != nil {
		t.Fatalf("torn load: %v", err)
	}
	if got := reg.Counter("durability.prefix_recovered").Value(); got != 1 {
		t.Fatalf("durability.prefix_recovered = %d, want 1", got)
	}
	if reg.Counter("testcost.cache.loaded").Value() == 0 {
		t.Fatal("torn load warmed nothing — prefix was discarded")
	}
	a.mu.Lock()
	warm := len(a.cache)
	a.mu.Unlock()
	full, _ := coldAnnotator(t)
	full.mu.Lock()
	want := len(full.cache)
	full.mu.Unlock()
	if warm >= want {
		t.Fatalf("torn load kept %d entries, full cache has %d — the tear lost nothing?", warm, want)
	}
}

// TestCacheLegacyFormatRoundTrip: a whole-document pre-CRC cache is no
// longer read. LoadFile quarantines it to *.corrupt and leaves the
// annotator cold, and the cold run that follows saves exactly the bytes
// a never-legacy run saves.
func TestCacheLegacyFormatRoundTrip(t *testing.T) {
	_, blob := coldAnnotator(t)
	f, rec, err := decodeCacheData(blob)
	if err != nil || rec.Torn {
		t.Fatalf("decode framed cache: %v (recovery %+v)", err, rec)
	}
	legacy, err := json.MarshalIndent(struct {
		cacheFile
		Entries map[string]cacheEntry `json:"entries"`
	}{f, f.Entries}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	legacy = append(legacy, '\n')
	p := filepath.Join(t.TempDir(), "legacy.cache")
	if err := os.WriteFile(p, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	a := NewAnnotator(8, 7)
	reg := obs.NewRegistry()
	a.Obs = reg
	err = a.LoadFile(p)
	var ca *durable.CorruptArtifactError
	var cc *CacheCorruptError
	if !errors.As(err, &ca) || !errors.As(err, &cc) {
		t.Fatalf("legacy load: err %T (%v), want CorruptArtifactError wrapping CacheCorruptError", err, err)
	}
	if ca.QuarantinedTo != p+".corrupt" {
		t.Fatalf("quarantined to %q, want %q", ca.QuarantinedTo, p+".corrupt")
	}
	if kept, err := os.ReadFile(ca.QuarantinedTo); err != nil || !bytes.Equal(kept, legacy) {
		t.Fatalf("quarantined evidence differs from the legacy file (read err %v)", err)
	}
	if got := reg.Counter("testcost.cache.loaded").Value(); got != 0 {
		t.Fatalf("legacy load warmed %d entries, want 0", got)
	}

	arch := tta.Figure9()
	arch.Width = 8
	if _, err := a.EvaluateContext(context.Background(), arch); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := a.Save(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), blob) {
		t.Fatalf("cold run after the quarantine saved different bytes:\n%q\nvs\n%q", out.Bytes(), blob)
	}
}

// TestCacheQuarantineOnLoadFile feeds LoadFile an irrecoverable file: it
// must quarantine to *.corrupt, count it, return the typed artifact
// error wrapping CacheCorruptError, and leave the annotator cold.
func TestCacheQuarantineOnLoadFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "ann.cache")
	if err := os.WriteFile(p, []byte("{definitely not a cache"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := NewAnnotator(8, 7)
	reg := obs.NewRegistry()
	a.Obs = reg
	err := a.LoadFile(p)
	var ca *durable.CorruptArtifactError
	if !errors.As(err, &ca) {
		t.Fatalf("err = %T (%v), want *durable.CorruptArtifactError", err, err)
	}
	var cc *CacheCorruptError
	if !errors.As(err, &cc) {
		t.Fatal("artifact error does not wrap CacheCorruptError")
	}
	if ca.QuarantinedTo != p+".corrupt" {
		t.Fatalf("quarantined to %q", ca.QuarantinedTo)
	}
	if _, serr := os.Stat(p); !os.IsNotExist(serr) {
		t.Fatal("corrupt cache still at original path")
	}
	if reg.Counter("durability.quarantined").Value() != 1 {
		t.Fatalf("durability.quarantined = %d, want 1", reg.Counter("durability.quarantined").Value())
	}
	a.mu.Lock()
	n := len(a.cache)
	a.mu.Unlock()
	if n != 0 {
		t.Fatalf("corrupt load warmed %d entries", n)
	}
}

// TestCacheSaveFileAtomicOnError arms an injected write failure: the
// existing cache file must survive untouched.
func TestCacheSaveFileAtomicOnError(t *testing.T) {
	a, _ := coldAnnotator(t)
	p := filepath.Join(t.TempDir(), "ann.cache")
	if err := a.SaveFile(p); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	inj.Arm(faultinject.CacheWrite, faultinject.Plan{Mode: faultinject.ModeError, Limit: 1})
	a.Inject = inj
	if err := a.SaveFile(p); err == nil {
		t.Fatal("injected write failure not surfaced")
	}
	after, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed save disturbed the existing cache file")
	}
}
