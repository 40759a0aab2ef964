package dse

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/gatelib"
	"repro/internal/obs"
)

// listSearchConfig is a small guided search over a width-8 library: 48
// screened genomes, at most 12 survivors.
func listSearchConfig(t testing.TB) Config {
	t.Helper()
	cfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Width = 8
	cfg.Annotator = sharedAnnotator()
	cfg.Search = &SearchSpec{Population: 16, Generations: 3, Eta: 4, Seed: 5}
	return cfg
}

// listScreenEvals is what one screen of listSearchConfig costs.
const listScreenEvals = 16 * 3

// listHeader is the header the run of cfg expects, and its file name.
func listHeader(t testing.TB, cfg Config) (candidateListHeader, string) {
	t.Helper()
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	spec := *cfg.Search
	if err := spec.fillDefaults(cfg.Seed); err != nil {
		t.Fatal(err)
	}
	h := newCandidateListHeader(&cfg, spec)
	name, err := h.fileName()
	if err != nil {
		t.Fatal(err)
	}
	return h, name
}

// shardedSearch runs count workers one after another, then the merge,
// each on its own registry, and returns the merged result bytes and the
// registries.
func shardedSearch(t *testing.T, cfg Config, count int, dir string) ([]byte, []*obs.Registry) {
	t.Helper()
	var regs []*obs.Registry
	paths := make([]string, count)
	for i := range paths {
		c := cfg
		c.Obs = obs.NewRegistry()
		regs = append(regs, c.Obs)
		paths[i] = runShard(t, c, count, i, dir)
	}
	c := cfg
	c.Obs = obs.NewRegistry()
	regs = append(regs, c.Obs)
	res, err := MergeExploreContext(context.Background(), c, paths)
	if err != nil {
		t.Fatal(err)
	}
	return resultBytes(t, res), regs
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func sumCounter(regs []*obs.Registry, name string) int64 {
	n := int64(0)
	for _, r := range regs {
		n += r.Counter(name).Value()
	}
	return n
}

func unshardedSearchBytes(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := ExploreContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return resultBytes(t, res)
}

// TestShardedSearchScreensOnce: at every topology the merged result is
// the unsharded run's, and the whole fan-out — workers plus merge —
// screens exactly once: the first worker screens and publishes the
// list, everyone after it loads it.
func TestShardedSearchScreensOnce(t *testing.T) {
	cfg := listSearchConfig(t)
	want := unshardedSearchBytes(t, cfg)
	for _, count := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprint("shards=", count), func(t *testing.T) {
			got, regs := shardedSearch(t, cfg, count, t.TempDir())
			if string(got) != string(want) {
				t.Fatal("merged result differs from the unsharded run")
			}
			if n := sumCounter(regs, "dse.search.cheap_evals"); n != listScreenEvals {
				t.Errorf("dse.search.cheap_evals summed over the fan-out = %d, want %d (one screen)", n, listScreenEvals)
			}
			if n := sumCounter(regs, "dse.search.list_loaded"); n != int64(count) {
				t.Errorf("dse.search.list_loaded = %d, want %d (every worker after the first, and the merge)", n, count)
			}
		})
	}
}

// frameList frames a candidate list by hand: header h with the given
// count, then one record per key.
func frameList(t *testing.T, h candidateListHeader, count int, keys []string) []byte {
	t.Helper()
	h.Count = count
	head, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	buf := durable.AppendRecord(nil, head)
	for _, k := range keys {
		buf = durable.AppendRecord(buf, []byte(k))
	}
	return buf
}

// TestCandidateListRejections: a list that fails any check is
// quarantined (or, under another spec's name, ignored), the run screens
// again, and the result bytes do not move.
func TestCandidateListRejections(t *testing.T) {
	cfg := listSearchConfig(t)
	want := unshardedSearchBytes(t, cfg)
	h, name := listHeader(t, cfg)

	// A valid list, from a real screen.
	seedDir := t.TempDir()
	runShard(t, cfg, 2, 0, seedDir)
	valid, err := os.ReadFile(filepath.Join(seedDir, name))
	if err != nil {
		t.Fatal(err)
	}
	survivors, err := decodeCandidateList(valid, h)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	multiRF := -1
	for i := range survivors {
		keys = append(keys, survivors[i].key())
		if len(survivors[i].rfs) > 1 && survivors[i].rfs[0] != survivors[i].rfs[1] {
			multiRF = i
		}
	}
	if len(keys) < 2 || multiRF < 0 {
		t.Fatalf("seed list too small to build every case: %v", keys)
	}
	replace := func(i int, k string) []string {
		out := append([]string(nil), keys...)
		out[i] = k
		return out
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-14] ^= 0x04 // the last genome record's last key byte
	g := survivors[multiRF]
	g.rfs = []RFSpec{g.rfs[1], g.rfs[0]}
	nonCanonical := g.key()

	cases := map[string][]byte{
		"torn tail":       valid[:len(valid)-3],
		"torn half":       valid[:len(valid)/2],
		"flipped bit":     flipped,
		"empty":           {},
		"garbage":         []byte("not a candidate list\n"),
		"count too high":  frameList(t, h, len(keys)+1, keys),
		"count too low":   frameList(t, h, len(keys)-1, keys),
		"count zero":      frameList(t, h, 0, nil),
		"buses 17":        frameList(t, h, len(keys), replace(0, strings.Replace(keys[0], keys[0][:3], "b17", 1))),
		"buses 0":         frameList(t, h, len(keys), replace(0, strings.Replace(keys[0], keys[0][:3], "b00", 1))),
		"unknown adder":   frameList(t, h, len(keys), replace(0, strings.Replace(keys[0], "/"+survivors[0].adder.String()+"/", "/kogge-stone/", 1))),
		"regs 5":          frameList(t, h, len(keys), replace(0, keys[0][:strings.Index(keys[0], "/rf")]+"/rf05x1w1r")),
		"duplicate":       frameList(t, h, len(keys), replace(1, keys[0])),
		"non-canonical":   frameList(t, h, len(keys), replace(multiRF, nonCanonical)),
		"padded buses":    frameList(t, h, len(keys), replace(0, strings.Replace(keys[0], keys[0][:3], fmt.Sprintf("b0%02d", survivors[0].buses), 1))),
		"header not json": append(durable.AppendRecord(nil, []byte("{")), valid[strings.IndexByte(string(valid), '\n')+1:]...),
	}
	for field, mutate := range map[string]func(*candidateListHeader){
		"version":          func(h *candidateListHeader) { h.Version++ },
		"library":          func(h *candidateListHeader) { h.Library += "x" },
		"width":            func(h *candidateListHeader) { h.Width = 16 },
		"seed":             func(h *candidateListHeader) { h.Seed++ },
		"workload":         func(h *candidateListHeader) { h.Workload = "crc16" },
		"spec hash":        func(h *candidateListHeader) { h.SpecHash = "0123456789abcdef" },
		"population":       func(h *candidateListHeader) { h.Search.Population++ },
		"generations":      func(h *candidateListHeader) { h.Search.Generations++ },
		"eta":              func(h *candidateListHeader) { h.Search.Eta++ },
		"ga seed":          func(h *candidateListHeader) { h.Search.Seed++ },
		"bus area per bit": func(h *candidateListHeader) { h.BusAreaPerBit++ },
		"bus delay":        func(h *candidateListHeader) { h.BusDelay++ },
	} {
		bad := h
		mutate(&bad)
		cases["header "+field] = frameList(t, bad, len(keys), keys)
	}

	for label, data := range cases {
		t.Run(label, func(t *testing.T) {
			if got, err := decodeCandidateList(data, h); err == nil || got != nil {
				t.Fatalf("decode accepted the list (err %v, %d genomes)", err, len(got))
			}
			dir := t.TempDir()
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, regs := shardedSearch(t, cfg, 2, dir)
			if string(got) != string(want) {
				t.Fatal("result differs from the unsharded run")
			}
			if n := sumCounter(regs, "durability.quarantined"); n != 1 {
				t.Errorf("durability.quarantined = %d, want 1", n)
			}
			if n := sumCounter(regs, "dse.search.cheap_evals"); n != listScreenEvals {
				t.Errorf("dse.search.cheap_evals = %d, want %d (one re-screen)", n, listScreenEvals)
			}
			if q, err := os.ReadFile(path + ".corrupt"); err != nil || string(q) != string(data) {
				t.Errorf("quarantined file missing or altered: %v", err)
			}
			if rewritten, err := os.ReadFile(path); err != nil || string(rewritten) != string(valid) {
				t.Errorf("the re-screen did not republish the valid list: %v", err)
			}
		})
	}

	// Another spec's list in the same directory has another name: it is
	// neither read nor touched.
	t.Run("other spec", func(t *testing.T) {
		dir := t.TempDir()
		other := cfg
		other.Search = &SearchSpec{Population: 16, Generations: 3, Eta: 4, Seed: 6}
		runShard(t, other, 1, 0, dir)
		_, otherName := listHeader(t, other)
		before, err := os.ReadFile(filepath.Join(dir, otherName))
		if err != nil {
			t.Fatal(err)
		}
		got, regs := shardedSearch(t, cfg, 2, dir)
		if string(got) != string(want) {
			t.Fatal("result differs from the unsharded run")
		}
		if n := sumCounter(regs, "durability.quarantined"); n != 0 {
			t.Errorf("durability.quarantined = %d, want 0", n)
		}
		if n := sumCounter(regs, "dse.search.cheap_evals"); n != listScreenEvals {
			t.Errorf("dse.search.cheap_evals = %d, want %d", n, listScreenEvals)
		}
		if after, err := os.ReadFile(filepath.Join(dir, otherName)); err != nil || string(after) != string(before) {
			t.Errorf("the other spec's list was touched: %v", err)
		}
	})
}

// TestCandidateListTornWrite: a torn list write lands a damaged file;
// the next worker quarantines it, screens again and republishes, and
// the merged bytes do not move.
func TestCandidateListTornWrite(t *testing.T) {
	cfg := listSearchConfig(t)
	want := unshardedSearchBytes(t, cfg)
	dir := t.TempDir()
	first := cfg
	first.Inject = faultinject.New(1)
	first.Inject.Arm(faultinject.CandidateList, faultinject.Plan{Mode: faultinject.ModeTornWrite, Frac: 0.6})
	paths := []string{runShard(t, first, 2, 0, dir)}
	if first.Inject.Fires(faultinject.CandidateList) != 1 {
		t.Fatal("the list write was not torn")
	}
	reg := obs.NewRegistry()
	second := cfg
	second.Obs = reg
	paths = append(paths, runShard(t, second, 2, 1, dir))
	if reg.Counter("durability.quarantined").Value() != 1 || reg.Counter("dse.search.cheap_evals").Value() != listScreenEvals {
		t.Fatalf("worker 1 did not quarantine and re-screen: %v", reg.Snapshot().Counters)
	}
	res, err := MergeExploreContext(context.Background(), cfg, paths)
	if err != nil {
		t.Fatal(err)
	}
	if string(resultBytes(t, res)) != string(want) {
		t.Fatal("merged result differs from the unsharded run")
	}
}

// TestResumedSearchWorkerSkipsScreen: a worker killed after the screen
// resumes from its checkpoint without screening again.
func TestResumedSearchWorkerSkipsScreen(t *testing.T) {
	cfg := listSearchConfig(t)
	want := unshardedSearchBytes(t, cfg)
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	killed := cfg
	killed.Shard = &ShardRange{Count: 2, Index: 0}
	killed.EventSink = func(ev Event) {
		if ev.Kind == EventCandidate {
			cancel()
		}
	}
	ck, err := OpenCheckpoint(filepath.Join(dir, "shard0of2.ckpt"), killed)
	if err != nil {
		t.Fatal(err)
	}
	killed.Checkpoint = ck
	ExploreContext(ctx, killed) // cut short after the first candidate
	ck.Flush()
	if _, name := listHeader(t, cfg); !fileExists(filepath.Join(dir, name)) {
		t.Fatal("the killed worker published no candidate list")
	}

	got, regs := shardedSearch(t, cfg, 2, dir)
	if string(got) != string(want) {
		t.Fatal("merged result differs from the unsharded run")
	}
	if n := sumCounter(regs, "dse.search.cheap_evals"); n != 0 {
		t.Errorf("resumed fan-out screened %d genomes, want 0 (the killed run's list)", n)
	}
}

// TestPrepareCandidateList: the exported helper screens once and
// publishes under the run's name; a second call reuses the list.
func TestPrepareCandidateList(t *testing.T) {
	cfg := listSearchConfig(t)
	dir := t.TempDir()
	_, name := listHeader(t, cfg)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	for i := 0; i < 2; i++ {
		if err := PrepareCandidateList(context.Background(), cfg, dir); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if !fileExists(filepath.Join(dir, name)) {
		t.Fatalf("no list %s published", name)
	}
	if n := reg.Counter("dse.search.cheap_evals").Value(); n != listScreenEvals {
		t.Errorf("dse.search.cheap_evals = %d, want one screen (%d)", n, listScreenEvals)
	}
	if n := reg.Counter("dse.search.list_loaded").Value(); n != 1 {
		t.Errorf("dse.search.list_loaded = %d, want 1", n)
	}
	cfg.Search = nil
	sweepDir := t.TempDir()
	if err := PrepareCandidateList(context.Background(), cfg, sweepDir); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(sweepDir); len(entries) != 0 {
		t.Errorf("a sweep config wrote %d files, want no list", len(entries))
	}
}

// fuzzListHeader is the fixed header FuzzLoadCandidateList decodes
// against; the seed corpus is framed with it.
func fuzzListHeader() candidateListHeader {
	return candidateListHeader{
		Version: candidateListVersion, Library: gatelib.LibraryKey, Width: 16, Seed: 7,
		Workload: "crypt/w16/in8/ops40/reps400", SpecHash: "00112233aabbccdd",
		Search:        SearchSpec{Population: 64, Generations: 8, Eta: 4, Seed: 11},
		BusAreaPerBit: 3, BusDelay: 1.5,
	}
}

// FuzzLoadCandidateList: any bytes decode to the complete, valid list
// the header promises, or to an error and nothing — never a panic, never
// a partial list. The corpus in testdata/fuzz holds a valid list, its
// truncations and bit flips, and hand-made header, count and gene
// violations.
func FuzzLoadCandidateList(f *testing.F) {
	h := fuzzListHeader()
	rng := rand.New(rand.NewSource(1))
	var gs []genome
	seen := map[string]bool{}
	for len(gs) < 4 {
		if g := randGenome(rng); !seen[g.key()] {
			seen[g.key()] = true
			gs = append(gs, g)
		}
	}
	valid, err := encodeCandidateList(h, gs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeCandidateList(data, h)
		if err != nil {
			if got != nil {
				t.Fatalf("error %v alongside %d genomes", err, len(got))
			}
			return
		}
		payloads, _, _ := durable.ScanRecords(data)
		if len(got) == 0 || len(got) != len(payloads)-1 {
			t.Fatalf("%d genomes from %d records", len(got), len(payloads))
		}
		keys := map[string]bool{}
		for i := range got {
			k := got[i].key()
			if keys[k] || k != string(payloads[i+1]) {
				t.Fatalf("genome %d: key %q duplicated or not the record %q", i, k, payloads[i+1])
			}
			keys[k] = true
			if _, err := parseGenomeKey(k); err != nil {
				t.Fatalf("accepted genome %d is invalid: %v", i, err)
			}
		}
	})
}
