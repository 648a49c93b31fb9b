package shard

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"parcube/internal/server"
	"parcube/internal/wal"
)

// This file is the "a delta is a batch of one" wall: the three wire
// forms of a single record must be indistinguishable below the protocol
// parser, concurrent single deltas must share log syncs through the
// coordinator queue (the system's only batching point), and a replayed
// catch-up window must cost a rejoiner syncs per RUN, not per record.

// deltaAt lands one record on a node at an exact LSN — what a lockstep
// write or a lost-ack round leaves behind — as a DELTABATCH of one.
func deltaAt(cl *server.Client, lsn uint64, rows []server.Row) (applied bool, err error) {
	_, n, err := cl.DeltaBatch([]server.LoggedDelta{{LSN: lsn, Rows: rows}})
	return n == 1, err
}

// walSegments reads every WAL segment file of a node's data directory.
func walSegments(t *testing.T, dataDir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dataDir, "wal", "wal-*.seg"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no WAL segments under %s: %v", dataDir, err)
	}
	segs := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		segs[filepath.Base(p)] = data
	}
	return segs
}

// TestDeltaIsBatchOfOne sends the same records to three fresh durable
// nodes as "DELTA n", "DELTA n <lsn>" and "DELTABATCH 1" and requires
// identical acknowledgements, byte-identical WAL segment files and
// cell-identical cubes: below the parser there is one ingest path.
func TestDeltaIsBatchOfOne(t *testing.T) {
	ds, ref := test4D(t)
	plan, err := NewPlan(ds.Schema().Names(), ds.Schema().Sizes(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	records := [][]server.Row{
		{{Coords: []int{0, 0, 0, 0}, Value: 3}},
		{{Coords: []int{7, 5, 4, 3}, Value: -1.5}, {Coords: []int{1, 2, 3, 0}, Value: 40}},
		{{Coords: []int{4, 4, 4, 2}, Value: 0.25}, {Coords: []int{4, 4, 4, 3}, Value: 8}, {Coords: []int{2, 0, 1, 1}, Value: -6}},
	}
	payload := func(rows []server.Row) string {
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "%d,%d,%d,%d %g\n", r.Coords[0], r.Coords[1], r.Coords[2], r.Coords[3], r.Value)
		}
		return b.String()
	}
	forms := []struct {
		name    string
		request func(lsn int, rows []server.Row) string
	}{
		{"DELTA n", func(_ int, rows []server.Row) string {
			return fmt.Sprintf("DELTA %d\n%s.\n", len(rows), payload(rows))
		}},
		{"DELTA n lsn", func(lsn int, rows []server.Row) string {
			return fmt.Sprintf("DELTA %d %d\n%s.\n", len(rows), lsn, payload(rows))
		}},
		{"DELTABATCH 1", func(_ int, rows []server.Row) string {
			return fmt.Sprintf("DELTABATCH 1\n%d 0\n%s.\n", len(rows), payload(rows))
		}},
	}

	for _, rows := range records {
		applyRef(t, ref, rows)
	}

	var (
		replies [][]string
		logs    []map[string][]byte
	)
	for _, form := range forms {
		dir := t.TempDir()
		n, err := StartDurableNode(plan, 0, ds, "127.0.0.1:0", DurableOptions{DataDir: dir, Fsync: wal.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		conn, err := net.DialTimeout("tcp", n.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		var got []string
		for i, rows := range records {
			if _, err := conn.Write([]byte(form.request(i+1, rows))); err != nil {
				t.Fatal(err)
			}
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("%s record %d: %v", form.name, i, err)
			}
			got = append(got, strings.TrimSpace(line))
		}
		replies = append(replies, got)
		logs = append(logs, walSegments(t, dir))
		assertClusterMatchesCube(t, n.Addr(), ref)
	}

	for i, want := range []string{"OK lsn=1 applied=1", "OK lsn=2 applied=1", "OK lsn=3 applied=1"} {
		for f, form := range forms {
			if replies[f][i] != want {
				t.Fatalf("%s record %d answered %q, want %q", form.name, i, replies[f][i], want)
			}
		}
	}
	for f := 1; f < len(forms); f++ {
		if len(logs[f]) != len(logs[0]) {
			t.Fatalf("%s wrote %d segments, %s wrote %d", forms[f].name, len(logs[f]), forms[0].name, len(logs[0]))
		}
		for name, data := range logs[0] {
			if !bytes.Equal(logs[f][name], data) {
				t.Fatalf("segment %s differs between %s and %s", name, forms[0].name, forms[f].name)
			}
		}
	}
}

// TestConcurrentDeltasShareSyncs is the syncs-per-record bar, measured
// where batching happens: concurrent single-delta writers queue behind
// the group's commit leader, each round reaches every replica as one
// DELTABATCH, and every DELTABATCH is one synced WAL run. So rounds —
// and with them each replica's fsyncs — must stay far below the record
// count, while every record still gets its own dense LSN.
func TestConcurrentDeltasShareSyncs(t *testing.T) {
	ds, ref := test4D(t)
	dc := startLockstepPair(t, ds)
	const (
		writers = 16
		perW    = 25
		records = writers * perW
	)
	var (
		mu   sync.Mutex
		seen = make(map[uint64]bool, records)
		wg   sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				rows := []server.Row{{Coords: blockCell(dc.nodes[0], w*perW+i), Value: float64(w + 1)}}
				lsn, _, err := dc.coord.Delta(rows, 0)
				if err != nil {
					t.Errorf("writer %d delta %d: %v", w, i, err)
					return
				}
				mu.Lock()
				if seen[lsn] {
					t.Errorf("LSN %d acknowledged twice", lsn)
				}
				seen[lsn] = true
				applyRef(t, ref, rows)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for lsn := uint64(1); lsn <= records; lsn++ {
		if !seen[lsn] {
			t.Fatalf("LSN %d never assigned: LSNs are not dense", lsn)
		}
	}
	rounds := dc.coord.stats.ingestBatch.Snapshot()
	if rounds.Sum != records {
		t.Fatalf("ingest_batch_size_sum = %d, want %d", rounds.Sum, records)
	}
	if ratio := float64(rounds.Count) / records; ratio >= 0.5 {
		t.Fatalf("%d commit rounds for %d records (%.2f per record); the queue must amortize well below 1", rounds.Count, records, ratio)
	}
	for i, n := range dc.nodes {
		runs := n.RecoveryMetrics().Histogram("wal.group_size").Snapshot()
		if runs.Count != rounds.Count || runs.Sum != records {
			t.Fatalf("node %d synced %d runs holding %d records; want one run per round (%d) holding %d",
				i, runs.Count, runs.Sum, rounds.Count, records)
		}
	}
	assertCoordMatches(t, dc.coord, ref, "after concurrent single deltas")
}

// TestRejoinCatchUpBatched leaves a replica 5000 single-row records
// behind — more than one DELTABATCH may carry — and rejoins it: the
// window must be replayed as a handful of doubling runs (a log write
// and an fsync per run, not per record) and the replica readmitted
// exactly at the group's high-water mark. The request timeout is long
// so that, race detector or not, a run's apply time never stops the
// doubling and the run count is deterministic: 32+64+...+2048, then
// the remaining 936.
func TestRejoinCatchUpBatched(t *testing.T) {
	ds, ref := test4D(t)
	dc := startLockstepPairCfg(t, ds, func(c *Config) { c.Timeout = 2 * time.Minute })
	g := dc.coord.groups()[0]
	rep := g.replicaList()[0]
	dc.coord.markDown(rep) // a down replica receives no lockstep writes

	const behind = 5000
	var all []server.Row
	for done := 0; done < behind; {
		recs := make([]server.LoggedDelta, 500)
		for i := range recs {
			recs[i].Rows = []server.Row{{Coords: blockCell(dc.nodes[0], done+i), Value: float64(done + i)}}
			all = append(all, recs[i].Rows...)
		}
		if _, applied, err := dc.coord.DeltaBatch(recs); err != nil || applied != len(recs) {
			t.Fatalf("ingest at %d: applied %d, %v", done, applied, err)
		}
		done += len(recs)
	}
	applyRef(t, ref, all) // SUM: one update of every row equals the 5000 applied in turn
	if a, b := dc.nodes[0].LastLSN(), dc.nodes[1].LastLSN(); a != 0 || b != behind {
		t.Fatalf("setup: replicas at LSNs %d and %d, want 0 and %d", a, b, behind)
	}

	runs := func() int64 {
		return dc.nodes[0].RecoveryMetrics().Histogram("wal.group_size").Snapshot().Count
	}
	before := runs()
	dc.coord.tryRejoin(g, rep)
	if rep.down.Load() {
		t.Fatalf("replica not readmitted (stats %+v)", dc.coord.Stats())
	}
	g.writeMu.Lock()
	lastLSN := g.lastLSN
	g.writeMu.Unlock()
	if a, b := dc.nodes[0].LastLSN(), dc.nodes[1].LastLSN(); a != lastLSN || b != lastLSN || lastLSN != behind {
		t.Fatalf("replicas at LSNs %d and %d, group at %d; want all at %d", a, b, lastLSN, behind)
	}
	if got := dc.coord.Stats().CatchupRecords; got != behind {
		t.Fatalf("catchup_records = %d, want %d", got, behind)
	}
	if grew := runs() - before; grew != 8 {
		t.Fatalf("rejoiner synced %d WAL runs for %d replayed records; want 8 doubling runs", grew, behind)
	}
	assertClusterMatchesCube(t, dc.nodes[0].Addr(), ref)
}
