package shard

import (
	"strings"
	"testing"
	"time"

	"parcube"
	"parcube/internal/server"
	"parcube/internal/wal"
)

// durableCluster is a loopback cluster of persistent shard nodes plus an
// ingesting coordinator and its protocol server.
type durableCluster struct {
	plan  *Plan
	nodes []*Node
	dirs  []string
	dopts DurableOptions
	coord *Coordinator
	srv   *server.Server
	addr  string
}

// startDurableCluster boots `nodes` durable shard servers (fsync on every
// append, so Crash loses nothing acknowledged) and a rejoin-enabled
// coordinator serving the line protocol on loopback TCP.
func startDurableCluster(t *testing.T, ds *parcube.Dataset, nodes, replicas int) *durableCluster {
	t.Helper()
	return startDurableClusterCfg(t, ds, nodes, replicas, nil)
}

// startDurableClusterCfg is startDurableCluster with a coordinator
// Config hook, so tests can flip serving-path options (hedging, custom
// timeouts) on an otherwise standard durable cluster.
func startDurableClusterCfg(t *testing.T, ds *parcube.Dataset, nodes, replicas int, mutate func(*Config)) *durableCluster {
	t.Helper()
	names := ds.Schema().Names()
	sizes := ds.Schema().Sizes()
	plan, err := NewPlan(names, sizes, nodes, replicas)
	if err != nil {
		t.Fatal(err)
	}
	dc := &durableCluster{
		plan:  plan,
		dopts: DurableOptions{Fsync: wal.FsyncAlways, CheckpointEvery: 4},
	}
	for i := 0; i < nodes; i++ {
		dir := t.TempDir()
		dopts := dc.dopts
		dopts.DataDir = dir
		n, err := StartDurableNode(plan, i, ds, "127.0.0.1:0", dopts)
		if err != nil {
			t.Fatal(err)
		}
		dc.dirs = append(dc.dirs, dir)
		dc.nodes = append(dc.nodes, n)
	}
	t.Cleanup(func() {
		// Nodes may have been crashed and replaced; close whatever the
		// test left in the slots (Close after Crash is a no-op).
		for _, n := range dc.nodes {
			_ = n.Close()
		}
	})
	addrs := make([]string, len(dc.nodes))
	for i, n := range dc.nodes {
		addrs[i] = n.Addr()
	}
	cfg := Config{
		Addrs:       addrs,
		Timeout:     2 * time.Second,
		Backoff:     time.Millisecond,
		Rounds:      4,
		RejoinEvery: 5 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	dc.coord, err = NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dc.coord.Close() })
	dc.srv = server.NewBackend(dc.coord)
	dc.srv.ReadTimeout = 10 * time.Second
	dc.srv.WriteTimeout = 10 * time.Second
	dc.addr, err = dc.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dc.srv.Close() })
	return dc
}

// restartNode brings node id back from its data directory on its original
// address, retrying the rebind until the dead socket is torn down.
func (dc *durableCluster) restartNode(t *testing.T, id int) {
	t.Helper()
	dopts := dc.dopts
	dopts.DataDir = dc.dirs[id]
	addr := dc.nodes[id].Addr()
	n, err := StartDurableNode(dc.plan, id, nil, addr, dopts)
	for attempt := 0; err != nil && attempt < 200; attempt++ {
		time.Sleep(5 * time.Millisecond)
		n, err = StartDurableNode(dc.plan, id, nil, addr, dopts)
	}
	if err != nil {
		t.Fatalf("restart node %d on %s: %v", id, addr, err)
	}
	dc.nodes[id] = n
}

// blockCell returns the i-th distinct cell (global coordinates) inside a
// block, walking the block's box in row-major order.
func blockCell(b *Node, i int) []int {
	coords := make([]int, len(b.Block.Lo))
	for j := len(coords) - 1; j >= 0; j-- {
		w := b.Block.Hi[j] - b.Block.Lo[j]
		coords[j] = b.Block.Lo[j] + i%w
		i /= w
	}
	return coords
}

// applyRef applies a delta to the reference cube through the same Update
// path the shards use.
func applyRef(t *testing.T, ref *parcube.Cube, rows []server.Row) {
	t.Helper()
	ds := parcube.NewDataset(ref.Schema())
	for _, r := range rows {
		if err := ds.Add(r.Value, r.Coords...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.Update(ds); err != nil {
		t.Fatal(err)
	}
}

// waitRejoins polls the coordinator until its rejoin counter reaches want.
func waitRejoins(t *testing.T, c *Coordinator, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().Rejoins >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("rejoins stuck at %d, want at least %d (stats %+v)", c.Stats().Rejoins, want, c.Stats())
}

// assertCoordMatches checks the coordinator's total and a 2-D group-by
// cell-for-cell against the reference cube.
func assertCoordMatches(t *testing.T, c *Coordinator, ref *parcube.Cube, when string) {
	t.Helper()
	total, err := c.Total()
	if err != nil {
		t.Fatalf("%s: TOTAL: %v", when, err)
	}
	if want := ref.Total(); total != want {
		t.Fatalf("%s: TOTAL = %v, want %v (acked deltas lost or double-applied)", when, total, want)
	}
	got, err := c.GroupBy("item", "region")
	if err != nil {
		t.Fatalf("%s: GROUPBY: %v", when, err)
	}
	want, err := ref.GroupBy("item", "region")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 4; j++ {
			if g, w := got.At(i, j), want.At(i, j); g != w {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", when, i, j, g, w)
			}
		}
	}
}

// TestDurableClusterIngestOverProtocol drives DELTA through the
// coordinator's own protocol server: the client's acknowledged deltas
// must show up, cell-exactly, in every query shape.
func TestDurableClusterIngestOverProtocol(t *testing.T) {
	ds, ref := test4D(t)
	dc := startDurableCluster(t, ds, 4, 2)

	cl, err := server.Dial(dc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 6; i++ {
		rows := []server.Row{
			{Coords: blockCell(dc.nodes[0], i), Value: float64(i + 1)},
			{Coords: blockCell(dc.nodes[1], i), Value: float64(10 * (i + 1))},
		}
		lsn, err := cl.Delta(rows)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("delta %d acked at LSN %d, want %d", i, lsn, i+1)
		}
		applyRef(t, ref, rows)
	}
	assertClusterMatchesCube(t, dc.addr, ref)

	s := dc.coord.Stats()
	if s.Deltas != 6 || s.DeltaCells != 12 {
		t.Fatalf("ingest stats %+v, want 6 deltas / 12 cells", s)
	}
	// Both replicas of block 0 logged identical records at identical LSNs.
	if a, b := dc.nodes[0].LastLSN(), dc.nodes[2].LastLSN(); a != b || a != 6 {
		t.Fatalf("block 0 replicas at LSNs %d and %d, want lockstep at 6", a, b)
	}
}

// TestDurableKillNineRejoin is the crash acceptance test: kill -9 one
// replica mid-stream, keep ingesting through its peer, bring it back
// from its data directory, and verify the rejoin protocol returns it to
// service with every acknowledged delta intact — proven by killing the
// peer afterwards so only the rejoined replica can answer for the block.
func TestDurableKillNineRejoin(t *testing.T) {
	ds, ref := test4D(t)
	dc := startDurableCluster(t, ds, 4, 2)

	ingest := func(i int, value float64) {
		t.Helper()
		rows := []server.Row{{Coords: blockCell(dc.nodes[0], i), Value: value}}
		if _, _, err := dc.coord.Delta(rows, 0); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		applyRef(t, ref, rows)
	}

	for i := 0; i < 5; i++ {
		ingest(i, float64(i+1))
	}

	// Kill -9: no flush, no goodbye. The next write to block 0 finds the
	// corpse, evicts it, and succeeds on the surviving replica.
	dc.nodes[0].Crash()
	for i := 5; i < 12; i++ {
		ingest(i, float64(i+1))
	}
	if s := dc.coord.Stats(); s.ReplicaDowns == 0 {
		t.Fatalf("writes to a crashed replica never evicted it (stats %+v)", s)
	}

	dc.restartNode(t, 0)
	waitRejoins(t, dc.coord, 1)

	// The node recovered from checkpoint + WAL tail and was caught up on
	// the deltas it missed; its log must match the group high-water mark.
	if got := dc.nodes[0].LastLSN(); got != 12 {
		t.Fatalf("rejoined replica at LSN %d, want 12", got)
	}
	if rec := dc.nodes[0].RecoveryMetrics().Flatten(); rec["recovery.replayed_records"] == 0 && rec["recovery.checkpoints"] == 0 {
		t.Fatalf("restart performed no recovery work: %v", rec)
	}
	assertCoordMatches(t, dc.coord, ref, "after rejoin")

	// Kill the peer: block 0 is now answerable only by the rejoined
	// replica, so exact totals here mean zero acknowledged-delta loss
	// across the kill -9.
	dc.nodes[2].Crash()
	assertCoordMatches(t, dc.coord, ref, "rejoined replica alone")

	// And the rejoined replica keeps ingesting: the write path evicts the
	// dead peer and continues single-copy.
	ingest(12, 99)
	assertCoordMatches(t, dc.coord, ref, "single-copy ingest")
}

// TestCoordinatorDeltaValidation covers the ingest guardrails: clients
// may not pick LSNs, empty and out-of-schema deltas are rejected, and a
// cluster of in-memory nodes refuses writes outright.
func TestCoordinatorDeltaValidation(t *testing.T) {
	ds, _ := test4D(t)
	dc := startDurableCluster(t, ds, 2, 1)

	if _, _, err := dc.coord.Delta([]server.Row{{Coords: []int{0, 0, 0, 0}, Value: 1}}, 7); err == nil {
		t.Fatal("client-chosen LSN accepted")
	}
	if _, _, err := dc.coord.Delta(nil, 0); err == nil {
		t.Fatal("empty delta accepted")
	}
	if _, _, err := dc.coord.Delta([]server.Row{{Coords: []int{0, 0}, Value: 1}}, 0); err == nil {
		t.Fatal("wrong-rank delta accepted")
	}
	if _, _, err := dc.coord.Delta([]server.Row{{Coords: []int{99, 0, 0, 0}, Value: 1}}, 0); err == nil {
		t.Fatal("out-of-bounds delta accepted")
	}

	mem := startCluster(t, ds, 2, 1)
	if _, _, err := mem.coord.Delta([]server.Row{{Coords: []int{0, 0, 0, 0}, Value: 1}}, 0); err == nil {
		t.Fatal("in-memory cluster accepted a delta")
	}
	// And over the wire the refusal is a clean ERR, not a dropped
	// connection.
	cl, err := server.Dial(mem.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Delta([]server.Row{{Coords: []int{0, 0, 0, 0}, Value: 1}}); err == nil {
		t.Fatal("in-memory cluster acked a DELTA over the protocol")
	} else if _, ok := err.(*server.RemoteError); !ok {
		t.Fatalf("want a remote ERR, got %v", err)
	}
	if _, err := cl.Total(); err != nil {
		t.Fatalf("connection unusable after rejected DELTA: %v", err)
	}
}

// TestDurableRestartIdempotentRedelivery checks the replication path's
// idempotence end to end: re-sending an already-logged record to a node
// reports applied=false and changes nothing.
func TestDurableRestartIdempotentRedelivery(t *testing.T) {
	ds, ref := test4D(t)
	dc := startDurableCluster(t, ds, 2, 1)

	rows := []server.Row{{Coords: blockCell(dc.nodes[0], 0), Value: 5}}
	if _, _, err := dc.coord.Delta(rows, 0); err != nil {
		t.Fatal(err)
	}
	applyRef(t, ref, rows)

	cl, err := server.Dial(dc.nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	applied, err := deltaAt(cl, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("redelivered record applied twice")
	}
	if _, err := deltaAt(cl, 5, rows); err == nil {
		t.Fatal("gap LSN accepted")
	}
	assertCoordMatches(t, dc.coord, ref, "after redelivery")
}

// TestDurableNodeColdRestartWithoutDataset checks a restart needs only
// the data directory: base state comes from the checkpoint, not the
// original dataset.
func TestDurableNodeColdRestartWithoutDataset(t *testing.T) {
	ds, ref := test4D(t)
	dc := startDurableCluster(t, ds, 2, 1)

	var all []server.Row
	for i := 0; i < 9; i++ { // crosses CheckpointEvery=4 twice
		rows := []server.Row{
			{Coords: blockCell(dc.nodes[0], i), Value: float64(i + 1)},
			{Coords: blockCell(dc.nodes[1], i), Value: float64(i + 2)},
		}
		if _, _, err := dc.coord.Delta(rows, 0); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		applyRef(t, ref, rows)
		all = append(all, rows...)
	}
	// No delta was in flight during the crashes, so the replicas are
	// never marked down and no rejoin runs: the restarted nodes must be
	// whole from checkpoint + WAL replay alone. Reads find the stale
	// pooled connections dead and redial.
	for id := 0; id < 2; id++ {
		dc.nodes[id].Crash()
		dc.restartNode(t, id) // restartNode passes ds == nil
		if got := dc.nodes[id].LastLSN(); got != 9 {
			t.Fatalf("node %d recovered to LSN %d, want 9", id, got)
		}
	}
	assertCoordMatches(t, dc.coord, ref, "cold dataset-free restart")
	if got := len(all); got != 18 {
		t.Fatalf("test bookkeeping: %d rows", got)
	}
}

// startLockstepPair boots two durable replicas of a single block with
// auto-checkpointing off (so an unacknowledged tail record is never
// baked into a checkpoint) and a coordinator whose rejoin loop is
// disabled — tests drive tryRejoin synchronously for determinism.
func startLockstepPair(t *testing.T, ds *parcube.Dataset) *durableCluster {
	t.Helper()
	return startLockstepPairCfg(t, ds, nil)
}

// startLockstepPairCfg is startLockstepPair with a coordinator Config
// hook (e.g. a longer request timeout) and optional cube build options
// (e.g. a non-sum aggregator) on an otherwise standard pair.
func startLockstepPairCfg(t *testing.T, ds *parcube.Dataset, mutate func(*Config), opts ...parcube.BuildOption) *durableCluster {
	t.Helper()
	plan, err := NewPlan(ds.Schema().Names(), ds.Schema().Sizes(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dc := &durableCluster{plan: plan, dopts: DurableOptions{Fsync: wal.FsyncAlways}}
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		dopts := dc.dopts
		dopts.DataDir = dir
		n, err := StartDurableNode(plan, i, ds, "127.0.0.1:0", dopts, opts...)
		if err != nil {
			t.Fatal(err)
		}
		dc.dirs = append(dc.dirs, dir)
		dc.nodes = append(dc.nodes, n)
	}
	t.Cleanup(func() {
		for _, n := range dc.nodes {
			_ = n.Close()
		}
	})
	cfg := Config{
		Addrs:       []string{dc.nodes[0].Addr(), dc.nodes[1].Addr()},
		Timeout:     2 * time.Second,
		Backoff:     time.Millisecond,
		Rounds:      4,
		RejoinEvery: -1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	dc.coord, err = NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dc.coord.Close() })
	return dc
}

// TestLostAckDivergenceRepairedOnRejoin reproduces the lost-ack LSN
// reuse: replica 0 applies and logs delta D1 at LSN 4 but its ack never
// reaches the coordinator, so the position stays open and a different
// delta D2 is assigned LSN 4 on the live peer. Both replicas then sit at
// LSN 4 with different content — rejoin must detect the divergence by
// comparing tail content (position alone matches), truncate the
// divergent record, and resupply D2 before readmitting.
func TestLostAckDivergenceRepairedOnRejoin(t *testing.T) {
	ds, ref := test4D(t)
	dc := startLockstepPair(t, ds)
	g := dc.coord.groups()[0]
	rep := g.replicaList()[0] // nodes[0]: replicas follow Addrs order

	for i := 0; i < 3; i++ {
		rows := []server.Row{{Coords: blockCell(dc.nodes[0], i), Value: float64(i + 1)}}
		if _, _, err := dc.coord.Delta(rows, 0); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		applyRef(t, ref, rows)
	}

	// The lost-ack round: the write reaches replica 0 (applied + logged at
	// LSN 4) but the ack is lost, so the coordinator marks it down and
	// g.lastLSN stays at 3. The client saw a failure; D1 is not in ref.
	d1 := []server.Row{{Coords: blockCell(dc.nodes[0], 3), Value: 111}}
	direct, err := server.Dial(dc.nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if applied, err := deltaAt(direct, 4, d1); err != nil || !applied {
		t.Fatalf("direct delta at 4: applied=%v, %v", applied, err)
	}
	if err := direct.Close(); err != nil {
		t.Fatal(err)
	}
	dc.coord.markDown(rep)

	// The retried (different) delta reuses LSN 4 on the live peer.
	d2 := []server.Row{{Coords: blockCell(dc.nodes[0], 4), Value: 222}}
	if _, _, err := dc.coord.Delta(d2, 0); err != nil {
		t.Fatal(err)
	}
	applyRef(t, ref, d2)
	if a, b := dc.nodes[0].LastLSN(), dc.nodes[1].LastLSN(); a != 4 || b != 4 {
		t.Fatalf("setup: replicas at LSNs %d and %d, want both at 4 (with different content)", a, b)
	}

	dc.coord.tryRejoin(g, rep)
	if rep.down.Load() {
		t.Fatalf("replica not readmitted (stats %+v)", dc.coord.Stats())
	}
	if got := dc.coord.Stats().TailTruncates; got == 0 {
		t.Fatal("divergent tail readmitted without truncation")
	}

	// The repaired replica must hold D2 and not D1 — query it directly
	// (its block covers the whole array, so its total is the cube total).
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
		t.Fatalf("repaired replica total = %v, want %v (divergent cells served)", total, want)
	}
	if a, b := dc.nodes[0].LastLSN(), dc.nodes[1].LastLSN(); a != b || a != 4 {
		t.Fatalf("replicas at LSNs %d and %d after repair, want lockstep at 4", a, b)
	}
	assertCoordMatches(t, dc.coord, ref, "after divergence repair")
}

// TestDivergentTailRepairedAfterRestart is the kill -9 variant of the
// lost-ack reuse: replica 0 logs D1 at LSN 4, dies before acking, the
// live peer gets a different delta at LSN 4, and replica 0 restarts from
// its data directory alone. The restart must not checkpoint the
// recovered state — that would stamp the divergent record into a
// snapshot and make the coordinator's TRUNCATE fail with
// ErrBelowCheckpoint, stranding the replica down forever.
func TestDivergentTailRepairedAfterRestart(t *testing.T) {
	ds, ref := test4D(t)
	dc := startLockstepPair(t, ds)
	g := dc.coord.groups()[0]
	rep := g.replicaList()[0]

	for i := 0; i < 3; i++ {
		rows := []server.Row{{Coords: blockCell(dc.nodes[0], i), Value: float64(i + 1)}}
		if _, _, err := dc.coord.Delta(rows, 0); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		applyRef(t, ref, rows)
	}

	d1 := []server.Row{{Coords: blockCell(dc.nodes[0], 3), Value: 111}}
	direct, err := server.Dial(dc.nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if applied, err := deltaAt(direct, 4, d1); err != nil || !applied {
		t.Fatalf("direct delta at 4: applied=%v, %v", applied, err)
	}
	_ = direct.Close()
	dc.nodes[0].Crash()
	dc.coord.markDown(rep)

	d2 := []server.Row{{Coords: blockCell(dc.nodes[0], 4), Value: 222}}
	if _, _, err := dc.coord.Delta(d2, 0); err != nil {
		t.Fatal(err)
	}
	applyRef(t, ref, d2)

	dc.restartNode(t, 0)
	if got := dc.nodes[0].LastLSN(); got != 4 {
		t.Fatalf("restarted node at LSN %d, want 4 (divergent tail recovered)", got)
	}

	// The pool may hand back a stale pre-crash connection on the first
	// probe; the background loop simply retries next tick, so do the same.
	for i := 0; i < 5 && rep.down.Load(); i++ {
		dc.coord.tryRejoin(g, rep)
	}
	if rep.down.Load() {
		t.Fatalf("replica not readmitted after restart (stats %+v)", dc.coord.Stats())
	}
	if got := dc.coord.Stats().TailTruncates; got == 0 {
		t.Fatal("divergent tail readmitted without truncation")
	}

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
		t.Fatalf("repaired replica total = %v, want %v (divergent cell survived restart)", total, want)
	}
	assertCoordMatches(t, dc.coord, ref, "after restart divergence repair")
}

// TestOrphanTailTruncatedOnRejoin covers the simpler half of the lost-ack
// problem: the replica logged a record above the group's high-water mark
// and nothing was reassigned meanwhile. The record was never acked to any
// client, so rejoin discards it and frees the position for reuse.
func TestOrphanTailTruncatedOnRejoin(t *testing.T) {
	ds, ref := test4D(t)
	dc := startLockstepPair(t, ds)
	g := dc.coord.groups()[0]
	rep := g.replicaList()[0]

	for i := 0; i < 2; i++ {
		rows := []server.Row{{Coords: blockCell(dc.nodes[0], i), Value: float64(i + 1)}}
		if _, _, err := dc.coord.Delta(rows, 0); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		applyRef(t, ref, rows)
	}

	orphan := []server.Row{{Coords: blockCell(dc.nodes[0], 2), Value: 111}}
	direct, err := server.Dial(dc.nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if applied, err := deltaAt(direct, 3, orphan); err != nil || !applied {
		t.Fatalf("direct delta at 3: applied=%v, %v", applied, err)
	}
	if err := direct.Close(); err != nil {
		t.Fatal(err)
	}
	dc.coord.markDown(rep)

	dc.coord.tryRejoin(g, rep)
	if rep.down.Load() {
		t.Fatalf("replica not readmitted (stats %+v)", dc.coord.Stats())
	}
	if got := dc.coord.Stats().TailTruncates; got != 1 {
		t.Fatalf("tail truncates = %d, want 1", got)
	}
	if a, b := dc.nodes[0].LastLSN(), dc.nodes[1].LastLSN(); a != b || a != 2 {
		t.Fatalf("replicas at LSNs %d and %d, want lockstep at 2", a, b)
	}
	// The never-acked cell must not be served.
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
		t.Fatalf("replica total = %v, want %v (orphan record served)", total, want)
	}
	// The vacated position is reusable by the next group write.
	rows := []server.Row{{Coords: blockCell(dc.nodes[0], 3), Value: 7}}
	lsn, _, err := dc.coord.Delta(rows, 0)
	if err != nil || lsn != 3 {
		t.Fatalf("delta after repair at LSN %d, %v; want 3", lsn, err)
	}
	applyRef(t, ref, rows)
	assertCoordMatches(t, dc.coord, ref, "after orphan truncation")
}

// TestPoisonedBackendStopsAcking: when a delta reaches the cube but its
// WAL append fails, the backend must stop acking deltas, checkpoints,
// and truncations until restart — acking on top of the unlogged mutation
// would acknowledge state a restart cannot reconstruct.
func TestPoisonedBackendStopsAcking(t *testing.T) {
	ds, _ := test4D(t)
	plan, err := NewPlan(ds.Schema().Names(), ds.Schema().Sizes(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := StartDurableNode(plan, 0, ds, "127.0.0.1:0", DurableOptions{
		DataDir: t.TempDir(), Fsync: wal.FsyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	b := n.durable

	if _, _, err := b.Delta([]server.Row{{Coords: blockCell(n, 0), Value: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	before, err := b.Total()
	if err != nil {
		t.Fatal(err)
	}

	// Fail the WAL out from under the backend: the next delta applies to
	// the cube but cannot be logged.
	b.mu.Lock()
	b.mgr.Crash()
	b.mu.Unlock()
	_, _, err = b.Delta([]server.Row{{Coords: blockCell(n, 1), Value: 50}}, 0)
	if err == nil {
		t.Fatal("unlogged delta was acked")
	}
	if !strings.Contains(err.Error(), "applied but not logged") {
		t.Fatalf("poison error = %v", err)
	}

	if _, _, err := b.Delta([]server.Row{{Coords: blockCell(n, 2), Value: 7}}, 0); err == nil {
		t.Fatal("poisoned backend acked a delta")
	}
	if err := n.Checkpoint(); err == nil {
		t.Fatal("poisoned node wrote a checkpoint")
	}
	if _, err := b.TruncateTail(0); err == nil {
		t.Fatal("poisoned backend accepted a truncation")
	}
	// Reads stay up: the cube is internally consistent, just ahead of the
	// log by the one unlogged mutation.
	after, err := b.Total()
	if err != nil {
		t.Fatal(err)
	}
	if after != before+50 {
		t.Fatalf("total after poisoning = %v, want %v", after, before+50)
	}
}
