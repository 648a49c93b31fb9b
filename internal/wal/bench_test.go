package wal

import (
	"fmt"
	"testing"
	"time"
)

// benchPayload is a realistic delta record: a handful of coordinate
// lines, the shape the shard layer logs.
var benchPayload = []byte("3,1,4,1 5.5\n2,7,1,8 -2\n0,0,0,0 1\n")

// BenchmarkWALAppend measures append throughput under each fsync policy.
// The bytes/op accounting covers payload plus frame overhead, so the
// MB/s figure is the on-disk write rate a shard's ingest path sees.
func BenchmarkWALAppend(b *testing.B) {
	policies := []struct {
		name string
		opts Options
	}{
		{"never", Options{Fsync: FsyncNever}},
		{"interval", Options{Fsync: FsyncInterval, FsyncEvery: 50 * time.Millisecond}},
		{"always", Options{Fsync: FsyncAlways}},
	}
	for _, p := range policies {
		b.Run("fsync="+p.name, func(b *testing.B) {
			l, err := Open(b.TempDir(), p.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.SetBytes(int64(len(benchPayload)) + frameHeader)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(benchPayload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(l.Syncs())/float64(b.N), "syncs/record")
		})
	}
}

// BenchmarkWALAppendBatchAt measures the path served ingest takes: a
// run of records written with one buffered write and one fsync (what a
// DELTABATCH of that many records costs the log). It reports ns per
// RECORD, so the row is directly comparable with
// BenchmarkWALAppend/fsync=always, which pays a full fsync per record;
// scripts/bench_regress.sh gates the ratio of the two from one run.
func BenchmarkWALAppendBatchAt(b *testing.B) {
	const recs = 16
	b.Run(fmt.Sprintf("fsync=always/recs=%d", recs), func(b *testing.B) {
		l, err := Open(b.TempDir(), Options{Fsync: FsyncAlways})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		run := make([]Record, recs)
		for i := range run {
			run[i].Payload = benchPayload
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(benchPayload)) + frameHeader)
		b.ResetTimer()
		// One iteration is one record, so ns/op is ns per record.
		for done := 0; done < b.N; done += recs {
			n := min(recs, b.N-done)
			for i := range run[:n] {
				run[i].LSN = uint64(done + i + 1)
			}
			if applied, err := l.AppendBatchAt(run[:n]); err != nil || applied != n {
				b.Fatalf("AppendBatchAt = %d, %v; want %d", applied, err, n)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(l.Syncs())/float64(b.N), "syncs/record")
	})
}

// BenchmarkWALReplay measures recovery speed: how fast a restarting node
// re-reads its acknowledged deltas. The log is written once with 10k
// records; every iteration replays all of them from disk state.
func BenchmarkWALReplay(b *testing.B) {
	const records = 10_000
	dir := b.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if _, err := l.Append(benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(records) * (int64(len(benchPayload)) + frameHeader))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := r.Replay(0, func(rec Record) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatal(fmt.Errorf("replayed %d of %d records", n, records))
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records), "records_per_replay")
}
