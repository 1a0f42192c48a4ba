package wal

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/registry"
)

// BenchmarkWALAppend measures the journal fast path — encode, CRC and
// group-commit buffering, with batched writes reaching the file — in
// bytes per second (each update record is 25 bytes framed). SyncNone
// isolates the in-memory path; SyncBatch adds one fsync per 256 KiB
// batch, the default serving configuration.
func BenchmarkWALAppend(b *testing.B) {
	for _, pol := range []SyncPolicy{SyncNone, SyncBatch} {
		b.Run(pol.String(), func(b *testing.B) {
			dir := b.TempDir()
			_, w, _, err := Open(dir, Options{Sync: pol}, registry.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(25)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Updated(i&1023, 1.5)
			}
			b.StopTimer()
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// benchmarkRecover builds a log of roughly `records` journaled
// mutations (100k live agents, periodic seals, snapshots disabled so
// the whole log replays) and measures a full crash recovery; the
// bytes/sec figure is replay throughput over the log size.
func benchmarkRecover(b *testing.B, records int) {
	dir := b.TempDir()
	r, w, _, err := Open(dir, Options{Sync: SyncNone}, registry.Config{Rate: 100, Shards: 64})
	if err != nil {
		b.Fatal(err)
	}
	agents := 100_000
	if agents > records/2 {
		agents = records / 2
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < agents; i++ {
		if _, err := r.Add(0.1 + 10*rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
	for i := agents; i < records; i++ {
		if err := r.Update(rng.IntN(agents), 0.1+10*rng.Float64()); err != nil {
			b.Fatal(err)
		}
		if i%200_000 == 0 {
			r.Seal()
		}
	}
	final := r.Seal()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	segs, _, err := scanDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var logBytes int64
	for _, s := range segs {
		st, err := os.Stat(s.path)
		if err != nil {
			b.Fatal(err)
		}
		logBytes += st.Size()
	}
	b.SetBytes(logBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r2, _, err := Recover(dir, registry.Config{Rate: 1, Shards: 64})
		if err != nil {
			b.Fatal(err)
		}
		if r2.Snapshot().Epoch() != final.Epoch() {
			b.Fatalf("recovered epoch %d, want %d", r2.Snapshot().Epoch(), final.Epoch())
		}
	}
}

func BenchmarkWALRecover1M(b *testing.B)  { benchmarkRecover(b, 1_000_000) }
func BenchmarkWALRecover10M(b *testing.B) { benchmarkRecover(b, 10_000_000) }

// BenchmarkWALSnapshot measures serializing and fsyncing one snapshot
// sidecar for a 100k-agent population.
func BenchmarkWALSnapshot(b *testing.B) {
	dir := b.TempDir()
	rng := rand.New(rand.NewPCG(3, 4))
	p := &pendingSnap{epoch: 7, rate: 100, s: 1234.5, next: 100_000, seg: 1, off: segHeaderLen}
	for i := 0; i < 100_000; i++ {
		p.t = append(p.t, 0.1+10*rng.Float64())
	}
	data := encodeSnapshot(p)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeDurable(filepath.Join(dir, "bench.snap"), encodeSnapshot(p)); err != nil {
			b.Fatal(err)
		}
	}
}
