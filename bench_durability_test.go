// Benchmarks for the crash-safe durability layer: the same cold
// parallel exploration as BenchmarkExploreColdParallel, but with a live
// checkpoint — every flush CRC-frames the records, fsyncs and renames —
// plus a microbenchmark of the flush itself. The pair quantifies what
// integrity checking costs on the hot path (the acceptance bound is
// <3% on the cold parallel sweep); numbers are recorded in
// BENCH_durability.json.
package repro

import (
	"context"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/dse"
	"repro/internal/testcost"
)

// BenchmarkExploreColdCheckpointed is BenchmarkExploreColdParallel with
// checkpoint persistence on: 288 candidates, a flush every 16 entries
// plus the final one, each flush a CRC-framed fsync'd atomic write.
func BenchmarkExploreColdCheckpointed(b *testing.B) {
	cfg := benchCacheConfig(b)
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg.Annotator = testcost.NewAnnotator(cfg.Width, cfg.Seed)
		path := filepath.Join(dir, "bench"+strconv.Itoa(i)+".ckpt")
		ck, err := dse.OpenCheckpoint(path, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Checkpoint = ck
		b.StartTimer()
		if _, err := dse.ExploreContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointFlush isolates one flush of a fully populated
// 288-entry checkpoint: snapshot, sorted CRC-framed encode, write,
// fsync, rename, directory sync.
func BenchmarkCheckpointFlush(b *testing.B) {
	cfg := benchCacheConfig(b)
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	cfg.Annotator = testcost.NewAnnotator(cfg.Width, cfg.Seed)
	path := filepath.Join(b.TempDir(), "bench.ckpt")
	ck, err := dse.OpenCheckpoint(path, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Checkpoint = ck
	if _, err := dse.ExploreContext(context.Background(), cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ck.FlushErr(); err != nil {
			b.Fatal(err)
		}
	}
}
