package wal

import (
	"fmt"
	"sync"
	"testing"

	"parcube/internal/obs"
)

// TestConcurrentAppendDense is the concurrent-writer wall: N goroutines
// × M appends against one log under FsyncAlways. Every append must come
// back with its own LSN, the LSNs must be dense, and the replayed
// contents must match what each caller was acked for. (Amortizing the
// fsync over concurrent writers is the coordinator queue's job; see
// shard.TestConcurrentDeltasShareSyncs.)
func TestConcurrentAppendDense(t *testing.T) {
	const (
		goroutines = 16
		perG       = 50
		records    = goroutines * perG
	)
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu   sync.Mutex
		got  = make(map[uint64]string, records)
		errs []error
		wg   sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				payload := fmt.Sprintf("g%d-i%d", g, i)
				lsn, err := l.Append([]byte(payload))
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else if prev, dup := got[lsn]; dup {
					errs = append(errs, fmt.Errorf("lsn %d handed to both %q and %q", lsn, prev, payload))
				} else {
					got[lsn] = payload
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("%d append errors, first: %v", len(errs), errs[0])
	}
	if len(got) != records {
		t.Fatalf("recorded %d distinct LSNs, want %d", len(got), records)
	}
	for lsn := uint64(1); lsn <= records; lsn++ {
		if _, ok := got[lsn]; !ok {
			t.Fatalf("LSN %d never assigned: LSNs are not dense", lsn)
		}
	}
	if last := l.LastLSN(); last != records {
		t.Fatalf("LastLSN = %d, want %d", last, records)
	}

	// Replay must hand back exactly the content each caller was acked for.
	replayed := 0
	err = l.Replay(0, func(rec Record) error {
		if want := got[rec.LSN]; string(rec.Payload) != want {
			return fmt.Errorf("lsn %d replayed %q, acked %q", rec.LSN, rec.Payload, want)
		}
		replayed++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if replayed != records {
		t.Fatalf("replayed %d records, want %d", replayed, records)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// And the durable reopened view agrees.
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if last := r.LastLSN(); last != records {
		t.Fatalf("reopened LastLSN = %d, want %d", last, records)
	}
}

// TestConcurrentAppendRotation drives concurrent appenders across
// segment boundaries: runs must rotate cleanly and replay densely.
func TestConcurrentAppendRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const records = 200
	var wg sync.WaitGroup
	errc := make(chan error, records)
	for i := 0; i < records; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := l.Append([]byte(fmt.Sprintf("rotating-record-%04d", i))); err != nil {
				errc <- err
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := 0
	if err := r.Replay(0, func(rec Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != records {
		t.Fatalf("replayed %d of %d records across rotations", n, records)
	}
}

// TestEverySyncedRunObserved pins the one-writer accounting: a run of
// one is a run, so k positioned single appends plus one run of m under
// FsyncAlways are k+1 syncs and k+1 wal.group_size observations summing
// to k+m records. (The old single-record writer synced without
// observing, so syncs-per-record read from the histogram undercounted.)
func TestEverySyncedRunObserved(t *testing.T) {
	const k, m = 5, 7
	reg := obs.NewRegistry()
	l, err := Open(t.TempDir(), Options{Fsync: FsyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for lsn := uint64(1); lsn <= k; lsn++ {
		if applied, err := l.AppendAt(lsn, []byte("one")); err != nil || !applied {
			t.Fatalf("AppendAt(%d) = %v, %v", lsn, applied, err)
		}
	}
	var run []Record
	for lsn := uint64(k + 1); lsn <= k+m; lsn++ {
		run = append(run, Record{LSN: lsn, Payload: []byte("run")})
	}
	if applied, err := l.AppendBatchAt(run); err != nil || applied != m {
		t.Fatalf("AppendBatchAt = %d, %v; want %d", applied, err, m)
	}
	groups := reg.Histogram("wal.group_size").Snapshot()
	if l.Syncs() != k+1 || groups.Count != k+1 {
		t.Fatalf("syncs = %d, group_size_count = %d; want both %d", l.Syncs(), groups.Count, k+1)
	}
	if groups.Sum != k+m {
		t.Fatalf("group_size_sum = %d, want %d", groups.Sum, k+m)
	}
}

// TestAppendBatchAt covers the explicit-LSN batch path: one sync per
// batch, per-record idempotent skips, and gap rejection that keeps the
// already-written prefix.
func TestAppendBatchAt(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	batch := func(lo, hi uint64) []Record {
		var recs []Record
		for lsn := lo; lsn <= hi; lsn++ {
			recs = append(recs, Record{LSN: lsn, Payload: []byte(fmt.Sprintf("b%d", lsn))})
		}
		return recs
	}

	applied, err := l.AppendBatchAt(batch(1, 5))
	if err != nil || applied != 5 {
		t.Fatalf("first batch: applied=%d err=%v, want 5,nil", applied, err)
	}
	if s := l.Syncs(); s != 1 {
		t.Fatalf("first batch issued %d syncs, want 1", s)
	}

	// Overlapping redelivery: 3..7 applies only 6 and 7.
	applied, err = l.AppendBatchAt(batch(3, 7))
	if err != nil || applied != 2 {
		t.Fatalf("overlap batch: applied=%d err=%v, want 2,nil", applied, err)
	}

	// A gap fails from the gapped record on; the prefix stays.
	recs := batch(8, 9)
	recs = append(recs, Record{LSN: 20, Payload: []byte("gap")})
	recs = append(recs, Record{LSN: 21, Payload: []byte("after-gap")})
	applied, err = l.AppendBatchAt(recs)
	if err == nil {
		t.Fatal("gapped batch did not error")
	}
	if applied != 2 {
		t.Fatalf("gapped batch applied %d, want the 2-record prefix", applied)
	}
	if l.LastLSN() != 9 {
		t.Fatalf("LastLSN = %d after gapped batch, want 9", l.LastLSN())
	}

	// Entirely-duplicate batch: no records, no error, no sync.
	before := l.Syncs()
	applied, err = l.AppendBatchAt(batch(1, 9))
	if err != nil || applied != 0 {
		t.Fatalf("duplicate batch: applied=%d err=%v, want 0,nil", applied, err)
	}
	if l.Syncs() != before {
		t.Fatal("duplicate batch issued a sync")
	}

	want := uint64(1)
	if err := l.Replay(0, func(rec Record) error {
		if rec.LSN != want {
			return fmt.Errorf("replay LSN %d, want %d", rec.LSN, want)
		}
		if string(rec.Payload) != fmt.Sprintf("b%d", rec.LSN) {
			return fmt.Errorf("lsn %d replayed %q", rec.LSN, rec.Payload)
		}
		want++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want != 10 {
		t.Fatalf("replayed through %d, want 9 records", want-1)
	}
}

// TestAppendBatchAtRotation forces mid-batch segment rotation and
// verifies a reopened log replays the whole batch.
func TestAppendBatchAtRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for lsn := uint64(1); lsn <= 64; lsn++ {
		recs = append(recs, Record{LSN: lsn, Payload: []byte(fmt.Sprintf("batch-rotation-%04d", lsn))})
	}
	applied, err := l.AppendBatchAt(recs)
	if err != nil || applied != 64 {
		t.Fatalf("applied=%d err=%v, want 64,nil", applied, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.LastLSN() != 64 {
		t.Fatalf("reopened LastLSN = %d, want 64", r.LastLSN())
	}
	n := 0
	if err := r.Replay(0, func(rec Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 64 {
		t.Fatalf("replayed %d of 64 batch records", n)
	}
}
