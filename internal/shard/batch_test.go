package shard

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"parcube"
	"parcube/internal/server"
)

// This file is the batch-ingest test wall: batched DELTABATCH ingest
// must be observationally identical to lockstep single-delta ingest
// (cells AND per-group LSN sequences), a kill -9 mid-group-commit must
// leave only a cleanly truncatable torn tail, and a lost BATCH ack —
// which diverges a whole run of records, not one — must be repaired by
// rejoin's suffix reconciliation.

// deltaStream is a deterministic randomized run of delta records over
// the 4-D test schema, each record 1..3 cells spread across blocks.
func deltaStream(t *testing.T, dc *durableCluster, n int, seed int64) [][]server.Row {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([][]server.Row, n)
	for i := range recs {
		cells := 1 + rng.Intn(3)
		rows := make([]server.Row, cells)
		for j := range rows {
			node := dc.nodes[rng.Intn(len(dc.nodes))]
			rows[j] = server.Row{
				Coords: blockCell(node, rng.Intn(16)),
				Value:  float64(rng.Intn(200) - 100),
			}
		}
		recs[i] = rows
	}
	return recs
}

// nodeLog fetches a node's full durable log directly, as records.
func nodeLog(t *testing.T, n *Node) []server.LoggedDelta {
	t.Helper()
	cl, err := server.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	logged, err := cl.DeltasSince(0)
	if err != nil {
		t.Fatal(err)
	}
	return logged
}

// TestBatchedLockstepDifferential applies the same randomized delta
// stream to two identical durable clusters — one through DELTABATCH in
// random-sized batches, one record-at-a-time through DELTA — and
// demands identical results everywhere batching claims to change
// nothing: cell-identical cubes, identical per-node durable logs, and
// identical per-group LSN sequences.
func TestBatchedLockstepDifferential(t *testing.T) {
	ds, ref := test4D(t)
	batched := startDurableCluster(t, ds, 4, 2)
	single := startDurableCluster(t, ds, 4, 2)

	const records = 40
	stream := deltaStream(t, batched, records, 7)
	for _, rows := range stream {
		for _, row := range rows {
			if err := func() error {
				d := parcube.NewDataset(ref.Schema())
				if err := d.Add(row.Value, row.Coords...); err != nil {
					return err
				}
				_, err := ref.Update(d)
				return err
			}(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Batched cluster: random-sized DELTABATCH calls over the wire.
	bcl, err := server.Dial(batched.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bcl.Close()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < records; {
		k := 1 + rng.Intn(5)
		if i+k > records {
			k = records - i
		}
		recs := make([]server.LoggedDelta, k)
		for j := 0; j < k; j++ {
			recs[j] = server.LoggedDelta{Rows: stream[i+j]}
		}
		_, applied, err := bcl.DeltaBatch(recs)
		if err != nil {
			t.Fatalf("batch at record %d: %v", i, err)
		}
		if applied != k {
			t.Fatalf("batch at record %d applied %d of %d", i, applied, k)
		}
		i += k
	}

	// Single cluster: the same records one DELTA at a time.
	scl, err := server.Dial(single.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer scl.Close()
	for i, rows := range stream {
		if _, err := scl.Delta(rows); err != nil {
			t.Fatalf("single delta %d: %v", i, err)
		}
	}

	// Cell-identical cubes, both equal to the reference.
	assertClusterMatchesCube(t, batched.addr, ref)
	assertClusterMatchesCube(t, single.addr, ref)
	assertCoordMatches(t, batched.coord, ref, "batched cluster")
	assertCoordMatches(t, single.coord, ref, "single-delta cluster")

	// Identical per-group LSN sequences: node i serves the same block in
	// both clusters (same plan), and its durable log must match record
	// for record — same LSNs, same content, in the same order.
	for i := range batched.nodes {
		blog := nodeLog(t, batched.nodes[i])
		slog := nodeLog(t, single.nodes[i])
		if len(blog) != len(slog) {
			t.Fatalf("node %d: batched log has %d records, single has %d", i, len(blog), len(slog))
		}
		for j := range blog {
			if blog[j].LSN != slog[j].LSN {
				t.Fatalf("node %d record %d: batched LSN %d, single LSN %d", i, j, blog[j].LSN, slog[j].LSN)
			}
			if !rowsEqual(blog[j].Rows, slog[j].Rows) {
				t.Fatalf("node %d LSN %d: batched and single content differ", i, blog[j].LSN)
			}
		}
	}
	// And batching actually batched: with 40 records in ≥1-sized calls
	// the commit queue must have seen at least one multi-record run.
	snap := batched.coord.stats.ingestBatch.Snapshot()
	if snap.Count == 0 {
		t.Fatal("ingest batch histogram never observed a run")
	}
}

// newestSegment returns the path of a crashed node's newest WAL
// segment.
func newestSegment(t *testing.T, dataDir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dataDir, "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments under %s: %v", dataDir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// TestKillNineMidGroupCommitTornBatch is the crash acceptance test for
// group commit: a node dies with a batch partially on disk — two
// records fully framed but never acknowledged, a third torn mid-frame.
// Recovery must truncate exactly the torn frame (complete frames at the
// tail survive locally), and rejoin must then strip the never-acked
// complete records as an orphan tail — so no record of the
// partially-synced batch is ever served or acknowledged.
func TestKillNineMidGroupCommitTornBatch(t *testing.T) {
	ds, ref := test4D(t)
	dc := startLockstepPairCfg(t, ds, nil)
	g := dc.coord.groups()[0]
	rep := g.replicaList()[0]

	// Six acknowledged records through the coordinator's batch path.
	recs := make([]server.LoggedDelta, 6)
	for i := range recs {
		recs[i] = server.LoggedDelta{Rows: []server.Row{{Coords: blockCell(dc.nodes[0], i), Value: float64(i + 1)}}}
	}
	lastLSN, applied, err := dc.coord.DeltaBatch(recs)
	if err != nil || applied != 6 || lastLSN != 6 {
		t.Fatalf("seed batch: lsn=%d applied=%d err=%v, want 6,6,nil", lastLSN, applied, err)
	}
	for _, rec := range recs {
		applyRef(t, ref, rec.Rows)
	}

	// The doomed batch: records 7 and 8 reach node 0's log (the ack is
	// lost), and the kill -9 lands mid-write of the ninth frame.
	direct, err := server.Dial(dc.nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	doomed := []server.LoggedDelta{
		{LSN: 7, Rows: []server.Row{{Coords: blockCell(dc.nodes[0], 7), Value: 111}}},
		{LSN: 8, Rows: []server.Row{{Coords: blockCell(dc.nodes[0], 8), Value: 222}}},
	}
	if last, applied, err := direct.DeltaBatch(doomed); err != nil || applied != 2 || last != 8 {
		t.Fatalf("direct batch: lsn=%d applied=%d err=%v, want 8,2,nil", last, applied, err)
	}
	_ = direct.Close()
	dc.nodes[0].Crash()
	dc.coord.markDown(rep)

	// The torn ninth frame: a partial write at the tail of the newest
	// segment, exactly what an OS-level kill -9 mid pwrite leaves.
	seg := newestSegment(t, dc.dirs[0])
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x21, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Local recovery keeps the complete frames and truncates the torn one.
	dc.restartNode(t, 0)
	if got := dc.nodes[0].LastLSN(); got != 8 {
		t.Fatalf("recovered node at LSN %d, want 8 (torn frame truncated, complete frames kept)", got)
	}

	// Rejoin strips the never-acked records 7 and 8 (orphan tail above
	// the group high-water mark 6) before readmitting.
	for i := 0; i < 5 && rep.down.Load(); i++ {
		dc.coord.tryRejoin(g, rep)
	}
	if rep.down.Load() {
		t.Fatalf("replica not readmitted (stats %+v)", dc.coord.Stats())
	}
	if got := dc.coord.Stats().TailTruncates; got == 0 {
		t.Fatal("orphaned batch suffix readmitted without truncation")
	}
	if a, b := dc.nodes[0].LastLSN(), dc.nodes[1].LastLSN(); a != b || a != 6 {
		t.Fatalf("replicas at LSNs %d and %d, want lockstep at 6", a, b)
	}

	// No record of the doomed batch is served.
	cl, err := server.Dial(dc.nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	total, err := cl.Total()
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Total(); total != want {
		t.Fatalf("total = %v, want %v (partially-synced batch leaked into serving state)", total, want)
	}
	assertCoordMatches(t, dc.coord, ref, "after torn-batch recovery")

	// And the vacated positions are reusable by acknowledged ingest.
	rows := []server.Row{{Coords: blockCell(dc.nodes[0], 9), Value: 7}}
	lsn, _, err := dc.coord.Delta(rows, 0)
	if err != nil || lsn != 7 {
		t.Fatalf("delta after repair at LSN %d, %v; want 7", lsn, err)
	}
	applyRef(t, ref, rows)
	assertCoordMatches(t, dc.coord, ref, "ingest after torn-batch recovery")
}

// TestLostBatchAckDivergenceRepaired is the batched generalization of
// the lost-ack LSN reuse: a whole batch lands on replica 0 (LSNs 4 and
// 5) but the ack never reaches the coordinator, so both positions stay
// open and a different batch takes them on the live peer. The replica's
// divergent suffix is now two records deep — rejoin must walk down past
// both, truncate to the last confirmed record, and resupply the group's
// history before readmitting.
func TestLostBatchAckDivergenceRepaired(t *testing.T) {
	ds, ref := test4D(t)
	dc := startLockstepPairCfg(t, ds, nil)
	g := dc.coord.groups()[0]
	rep := g.replicaList()[0]

	for i := 0; i < 3; i++ {
		rows := []server.Row{{Coords: blockCell(dc.nodes[0], i), Value: float64(i + 1)}}
		if _, _, err := dc.coord.Delta(rows, 0); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		applyRef(t, ref, rows)
	}

	// The lost-ack batch: D1 lands on replica 0 at LSNs 4 and 5, the ack
	// vanishes, and the coordinator marks the replica down with
	// g.lastLSN still at 3. The client saw a failure; D1 is not in ref.
	direct, err := server.Dial(dc.nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	d1 := []server.LoggedDelta{
		{LSN: 4, Rows: []server.Row{{Coords: blockCell(dc.nodes[0], 3), Value: 111}}},
		{LSN: 5, Rows: []server.Row{{Coords: blockCell(dc.nodes[0], 4), Value: 333}}},
	}
	if last, applied, err := direct.DeltaBatch(d1); err != nil || applied != 2 || last != 5 {
		t.Fatalf("direct batch: lsn=%d applied=%d err=%v, want 5,2,nil", last, applied, err)
	}
	if err := direct.Close(); err != nil {
		t.Fatal(err)
	}
	dc.coord.markDown(rep)

	// The retried (different) batch takes LSNs 4 and 5 on the live peer.
	d2 := []server.LoggedDelta{
		{Rows: []server.Row{{Coords: blockCell(dc.nodes[0], 5), Value: 222}}},
		{Rows: []server.Row{{Coords: blockCell(dc.nodes[0], 6), Value: 444}}},
	}
	lastLSN, applied, err := dc.coord.DeltaBatch(d2)
	if err != nil || applied != 2 || lastLSN != 5 {
		t.Fatalf("retry batch: lsn=%d applied=%d err=%v, want 5,2,nil", lastLSN, applied, err)
	}
	for _, rec := range d2 {
		applyRef(t, ref, rec.Rows)
	}
	if a, b := dc.nodes[0].LastLSN(), dc.nodes[1].LastLSN(); a != 5 || b != 5 {
		t.Fatalf("setup: replicas at LSNs %d and %d, want both at 5 (with two divergent records)", a, b)
	}

	dc.coord.tryRejoin(g, rep)
	if rep.down.Load() {
		t.Fatalf("replica not readmitted (stats %+v)", dc.coord.Stats())
	}
	if got := dc.coord.Stats().TailTruncates; got == 0 {
		t.Fatal("two-record divergent suffix readmitted without truncation")
	}

	// The repaired replica holds D2 and no trace of D1.
	cl, err := server.Dial(dc.nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	total, err := cl.Total()
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Total(); total != want {
		t.Fatalf("repaired replica total = %v, want %v (divergent batch records served)", total, want)
	}
	if a, b := dc.nodes[0].LastLSN(), dc.nodes[1].LastLSN(); a != b || a != 5 {
		t.Fatalf("replicas at LSNs %d and %d after repair, want lockstep at 5", a, b)
	}
	assertCoordMatches(t, dc.coord, ref, "after batch divergence repair")
}

// TestBatchRejectionFailsAlone drives a batch whose middle record is
// deterministically rejected by the shards (an overlapping delta on a
// MAX cube) through the coordinator: the batched wire write bounces off
// the first replica — which has already applied and durably logged the
// prefix — the coordinator falls back to per-record lockstep, and the
// bad record must fail alone, its neighbours landing at exactly the
// LSNs single-delta ingest would have assigned, on every replica.
func TestBatchRejectionFailsAlone(t *testing.T) {
	schema, err := parcube.NewSchema(
		parcube.Dim{Name: "item", Size: 8},
		parcube.Dim{Name: "branch", Size: 6},
		parcube.Dim{Name: "time", Size: 5},
		parcube.Dim{Name: "region", Size: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	ds := parcube.NewDataset(schema)
	if err := ds.Add(5, 7, 5, 4, 3); err != nil { // the occupied cell
		t.Fatal(err)
	}
	ref, _, err := parcube.Build(ds, parcube.WithAggregator(parcube.Max))
	if err != nil {
		t.Fatal(err)
	}
	dc := startLockstepPairCfg(t, ds, nil, parcube.WithAggregator(parcube.Max))

	recs := []server.LoggedDelta{
		{Rows: []server.Row{{Coords: blockCell(dc.nodes[0], 0), Value: 10}}},
		{Rows: []server.Row{{Coords: []int{7, 5, 4, 3}, Value: 1}}}, // overlaps: MAX rejects
		{Rows: []server.Row{{Coords: blockCell(dc.nodes[0], 1), Value: 30}}},
	}
	lastLSN, applied, err := dc.coord.DeltaBatch(recs)
	if err == nil {
		t.Fatal("batch with a rejected record fully acknowledged")
	}
	if applied != 2 {
		t.Fatalf("applied %d records, want 2 (the bad record alone fails)", applied)
	}
	if lastLSN != 2 {
		t.Fatalf("batch high-water LSN %d, want 2", lastLSN)
	}
	applyRef(t, ref, recs[0].Rows)
	applyRef(t, ref, recs[2].Rows)
	if a, b := dc.nodes[0].LastLSN(), dc.nodes[1].LastLSN(); a != b || a != 2 {
		t.Fatalf("replicas at LSNs %d and %d, want lockstep at 2", a, b)
	}
	// No replica was evicted: the rejection was clean on both sides.
	if s := dc.coord.Stats(); s.ReplicaDowns != 0 {
		t.Fatalf("clean rejection evicted a replica (stats %+v)", s)
	}
	assertCoordMatches(t, dc.coord, ref, "after mid-batch rejection")

	// The group keeps ingesting cleanly at the next position.
	rows := []server.Row{{Coords: blockCell(dc.nodes[0], 2), Value: 5}}
	lsn, _, err := dc.coord.Delta(rows, 0)
	if err != nil || lsn != 3 {
		t.Fatalf("delta after rejection at LSN %d, %v; want 3", lsn, err)
	}
	applyRef(t, ref, rows)
	assertCoordMatches(t, dc.coord, ref, "ingest after mid-batch rejection")
}
