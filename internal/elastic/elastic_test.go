package elastic

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"parcube"
	"parcube/internal/nd"
	"parcube/internal/server"
	"parcube/internal/shard"
	"parcube/internal/wal"
)

// testSchema is the 4-D schema the shard tests use: integer measures so
// aggregate sums are exact in float64, uneven sizes so remainder blocks
// appear.
func testSchema(t *testing.T) *parcube.Schema {
	t.Helper()
	schema, err := parcube.NewSchema(
		parcube.Dim{Name: "item", Size: 8},
		parcube.Dim{Name: "branch", Size: 6},
		parcube.Dim{Name: "time", Size: 5},
		parcube.Dim{Name: "region", Size: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

func testData(t *testing.T, schema *parcube.Schema) (*parcube.Dataset, *parcube.Cube) {
	t.Helper()
	ds := parcube.NewDataset(schema)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 600; i++ {
		err := ds.Add(float64(rng.Intn(50)+1),
			rng.Intn(8), rng.Intn(6), rng.Intn(5), rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
	}
	cube, _, err := parcube.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	return ds, cube
}

var testDopts = shard.DurableOptions{Fsync: wal.FsyncAlways, CheckpointEvery: 64}

// startNode boots one durable shard node; a nil dataset substitutes an
// empty one (a joining node's state arrives from the cluster).
func startNode(t *testing.T, plan *shard.Plan, id int, ds *parcube.Dataset, schema *parcube.Schema) *shard.Node {
	t.Helper()
	if ds == nil {
		ds = parcube.NewDataset(schema)
	}
	dopts := testDopts
	dopts.DataDir = t.TempDir()
	n, err := shard.StartDurableNode(plan, id, ds, "127.0.0.1:0", dopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// startCluster boots a durable cluster under plan and a coordinator.
func startCluster(t *testing.T, plan *shard.Plan, ds *parcube.Dataset) ([]*shard.Node, *shard.Coordinator) {
	t.Helper()
	nodes := make([]*shard.Node, plan.Nodes)
	addrs := make([]string, plan.Nodes)
	for i := range nodes {
		nodes[i] = startNode(t, plan, i, ds, ds.Schema())
		addrs[i] = nodes[i].Addr()
	}
	coord, err := shard.NewCoordinator(shard.Config{
		Addrs:       addrs,
		Timeout:     2 * time.Second,
		Backoff:     time.Millisecond,
		Rounds:      4,
		RejoinEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	return nodes, coord
}

// ackedRows tracks every delta the cluster acknowledged, for the
// differential oracle.
type ackedRows struct {
	mu   sync.Mutex
	rows []server.Row
	// applied marks the prefix already folded into the oracle cube, so
	// successive oracle calls on the same cube never double-apply.
	applied int
}

func (a *ackedRows) add(rows []server.Row) {
	a.mu.Lock()
	a.rows = append(a.rows, rows...)
	a.mu.Unlock()
}

// oracle folds the not-yet-applied acked rows into ref and returns it.
func (a *ackedRows) oracle(t *testing.T, ref *parcube.Cube) *parcube.Cube {
	t.Helper()
	a.mu.Lock()
	rows := append([]server.Row(nil), a.rows[a.applied:]...)
	a.applied = len(a.rows)
	a.mu.Unlock()
	for _, r := range rows {
		ds := parcube.NewDataset(ref.Schema())
		if err := ds.Add(r.Value, r.Coords...); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Update(ds); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// assertMatches checks the coordinator cell-for-cell against the oracle.
func assertMatches(t *testing.T, coord *shard.Coordinator, want *parcube.Cube, when string) {
	t.Helper()
	total, err := coord.Total()
	if err != nil {
		t.Fatalf("%s: TOTAL: %v", when, err)
	}
	if w := want.Total(); total != w {
		t.Fatalf("%s: TOTAL = %v, want %v (acked deltas lost or double-applied)", when, total, w)
	}
	got, err := coord.GroupBy("item", "region")
	if err != nil {
		t.Fatalf("%s: GROUPBY: %v", when, err)
	}
	ref, err := want.GroupBy("item", "region")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 4; j++ {
			if g, w := got.At(i, j), ref.At(i, j); g != w {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", when, i, j, g, w)
			}
		}
	}
}

// trafficLoop runs concurrent writers and readers against the
// coordinator until stopped; no query and no acknowledged write may
// fail. Returns a stop-and-wait func.
func trafficLoop(t *testing.T, coord *shard.Coordinator, acked *ackedRows) func() {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writer: one random cell per delta, integer values.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rows := []server.Row{{
				Coords: []int{rng.Intn(8), rng.Intn(6), rng.Intn(5), rng.Intn(4)},
				Value:  float64(rng.Intn(9) + 1),
			}}
			if _, _, err := coord.Delta(rows, 0); err != nil {
				t.Errorf("ingest failed during membership change: %v", err)
				return
			}
			acked.add(rows)
		}
	}()
	// Readers: totals and group-bys must never fail, whatever the
	// topology is doing.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := coord.Total(); err != nil {
					t.Errorf("TOTAL failed during membership change: %v", err)
					return
				}
				if _, err := coord.GroupBy("item", "region"); err != nil {
					t.Errorf("GROUPBY failed during membership change: %v", err)
					return
				}
			}
		}(r)
	}
	return func() {
		close(stop)
		wg.Wait()
	}
}

// TestStressGrowDrainUnderTraffic is the elastic acceptance wall: a live
// 4-node cluster grows to 8 by joining empty nodes (checkpoint ship +
// WAL catch-up + atomic cutover per group) and then drains two of the
// originals back out, all under concurrent ingest and queries. Zero
// failed queries, zero failed acked writes, and the final state must be
// cell-exact against a differential oracle fed the same acked rows.
func TestStressGrowDrainUnderTraffic(t *testing.T) {
	schema := testSchema(t)
	ds, ref := testData(t, schema)
	plan4, err := shard.NewPlan(schema.Names(), schema.Sizes(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes, coord := startCluster(t, plan4, ds)
	mgr := New(coord, plan4, Options{Timeout: 2 * time.Second})

	plan8, moves, err := plan4.Rebalance(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 4 {
		t.Fatalf("grow 4->8 planned %d moves, want 4 (one add per block)", len(moves))
	}

	acked := &ackedRows{}
	stopTraffic := trafficLoop(t, coord, acked)

	// Grow: start four empty nodes under the successor plan and join
	// each. Every join is a full migration — ship, catch up, cut over.
	joined := make([]*shard.Node, 0, 4)
	for id := 4; id < 8; id++ {
		n := startNode(t, plan8, id, nil, schema)
		joined = append(joined, n)
		if err := mgr.Join(n.Addr()); err != nil {
			t.Fatalf("joining node %d: %v", id, err)
		}
	}
	if epoch := coord.PlanEpoch(); epoch != 5 {
		t.Fatalf("plan epoch after 4 migrations = %d, want 5", epoch)
	}
	for _, g := range coord.Groups() {
		if len(g.Addrs) != 2 {
			t.Fatalf("block %s has %d replicas after grow, want 2", g.Block, len(g.Addrs))
		}
	}

	// Quiesce and check cell-exactness mid-journey.
	stopTraffic()
	if t.Failed() {
		t.FailNow()
	}
	want := acked.oracle(t, ref)
	assertMatches(t, coord, want, "after grow 4->8")

	// Drain two of the original nodes under fresh traffic: 8 -> 6.
	stopTraffic = trafficLoop(t, coord, acked)
	for _, n := range nodes[:2] {
		if err := mgr.Drain(n.Addr()); err != nil {
			t.Fatalf("draining %s: %v", n.Addr(), err)
		}
	}
	if epoch := coord.PlanEpoch(); epoch != 7 {
		t.Fatalf("plan epoch after 2 drains = %d, want 7", epoch)
	}
	stopTraffic()
	if t.Failed() {
		t.FailNow()
	}
	want = acked.oracle(t, want)
	assertMatches(t, coord, want, "after drain 8->6")

	// The drained groups must be back to one replica — the joined node.
	for _, g := range coord.Groups()[:2] {
		if len(g.Addrs) != 1 {
			t.Fatalf("block %s has %d replicas after drain, want 1", g.Block, len(g.Addrs))
		}
		if g.Addrs[0] != joined[g.Index].Addr() {
			t.Fatalf("block %s served by %s after drain, want the joined node %s", g.Block, g.Addrs[0], joined[g.Index].Addr())
		}
	}
	flat := coord.Metrics().Flatten()
	if flat["elastic.migrations"] != 4 || flat["elastic.drains"] != 2 || flat["elastic.rollbacks"] != 0 {
		t.Fatalf("elastic counters = migrations %d, drains %d, rollbacks %d; want 4, 2, 0",
			flat["elastic.migrations"], flat["elastic.drains"], flat["elastic.rollbacks"])
	}
	if flat["elastic.bytes_shipped"] == 0 {
		t.Fatal("no bytes shipped despite four checkpoint migrations")
	}
	if flat["elastic.cutover_ns_count"] != 4 {
		t.Fatalf("cutover histogram holds %d samples, want 4", flat["elastic.cutover_ns_count"])
	}
	// The epoch must surface in STATS for operators.
	stats := strings.Join(coord.StatsFields(), " ")
	if !strings.Contains(stats, "plan_epoch=7") {
		t.Fatalf("STATS fields %q lack plan_epoch=7", stats)
	}
}

// TestStressSplitLiveGroup splits a serving block group into two child
// groups staged via Join — the cubeshard -join flow — under live
// ingest: children receive the parent checkpoint restricted to their
// blocks, the parent WAL tail replays with densely renumbered child
// LSNs, and the cutover retires the parent atomically.
func TestStressSplitLiveGroup(t *testing.T) {
	schema := testSchema(t)
	ds, ref := testData(t, schema)
	plan2, err := shard.NewPlan(schema.Names(), schema.Sizes(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, coord := startCluster(t, plan2, ds)
	mgr := New(coord, plan2, Options{Timeout: 2 * time.Second})

	parent := plan2.Blocks[0]
	c1, c2, err := shard.SplitBlock(parent)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-built single-block plans give each child node its sub-block.
	childOf := func(id int) *shard.Plan {
		blk := c1
		if id == 3 {
			blk = c2
		}
		return &shard.Plan{
			Names: plan2.Names, Sizes: plan2.Sizes,
			Blocks: []nd.Block{blk}, Owners: [][]int{{id}},
			Nodes: id + 1, Replicas: 1, Epoch: 1,
		}
	}
	child1 := startNode(t, childOf(2), 2, nil, schema)
	child2 := startNode(t, childOf(3), 3, nil, schema)

	acked := &ackedRows{}
	stopTraffic := trafficLoop(t, coord, acked)

	// Stage the first child: no cutover yet — the tiling is incomplete.
	if err := mgr.Join(child1.Addr()); err != nil {
		t.Fatalf("staging first split child: %v", err)
	}
	if epoch := coord.PlanEpoch(); epoch != 1 {
		t.Fatalf("plan epoch moved to %d on an incomplete split staging", epoch)
	}
	if n := len(coord.Groups()); n != 2 {
		t.Fatalf("topology has %d groups after staging, want 2", n)
	}
	// The background writer is random and the split takes milliseconds:
	// land one parent record per child between the checkpoint export and
	// the cutover, so the replay below has records to route whatever the
	// scheduler does.
	testHookMidShip = func(string) {
		rows := []server.Row{{Coords: []int{c1.Lo[0], c1.Lo[1], c1.Lo[2], c1.Lo[3]}, Value: 3}}
		if _, _, err := coord.Delta(rows, 0); err != nil {
			t.Errorf("ingest mid-split: %v", err)
			return
		}
		acked.add(rows)
	}
	defer func() { testHookMidShip = nil }()
	// The second child completes the tiling and fires the split.
	if err := mgr.Join(child2.Addr()); err != nil {
		t.Fatalf("completing split: %v", err)
	}
	if epoch := coord.PlanEpoch(); epoch != 2 {
		t.Fatalf("plan epoch after split = %d, want 2", epoch)
	}
	groups := coord.Groups()
	if len(groups) != 3 {
		t.Fatalf("topology has %d groups after split, want 3", len(groups))
	}
	// Stable indices: the first child takes the parent's slot.
	if groups[0].Block.String() != c1.String() {
		t.Fatalf("slot 0 serves %s after split, want first child %s", groups[0].Block, c1)
	}

	stopTraffic()
	if t.Failed() {
		t.FailNow()
	}
	want := acked.oracle(t, ref)
	assertMatches(t, coord, want, "after live split")

	// Post-split ingest routes to the children, including rows that
	// straddle the split boundary.
	post := []server.Row{
		{Coords: []int{c1.Lo[0], c1.Lo[1], c1.Lo[2], c1.Lo[3]}, Value: 5},
		{Coords: []int{c2.Lo[0], c2.Lo[1], c2.Lo[2], c2.Lo[3]}, Value: 7},
	}
	if _, _, err := coord.Delta(post, 0); err != nil {
		t.Fatalf("post-split ingest: %v", err)
	}
	acked.add(post)
	want = acked.oracle(t, want)
	assertMatches(t, coord, want, "after post-split ingest")

	flat := coord.Metrics().Flatten()
	if flat["elastic.splits"] != 1 {
		t.Fatalf("elastic.splits = %d, want 1", flat["elastic.splits"])
	}
	if flat["elastic.records_replayed"] == 0 {
		t.Fatal("split replayed no parent records despite live ingest")
	}
}

// TestMigrationRollbackKill9 kills the migration target after the
// checkpoint ship: the migration must fail cleanly, the old owner must
// keep serving cell-exact answers, and the plan epoch must not move —
// the fail-safe rollback contract.
func TestMigrationRollbackKill9(t *testing.T) {
	schema := testSchema(t)
	ds, ref := testData(t, schema)
	plan2, err := shard.NewPlan(schema.Names(), schema.Sizes(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, coord := startCluster(t, plan2, ds)
	mgr := New(coord, plan2, Options{Timeout: 500 * time.Millisecond})

	plan4, _, err := plan2.Rebalance(4)
	if err != nil {
		t.Fatal(err)
	}
	target := startNode(t, plan4, 2, nil, schema)
	testHookMidShip = func(addr string) {
		if addr == target.Addr() {
			target.Crash()
		}
	}
	defer func() { testHookMidShip = nil }()

	if err := mgr.Join(target.Addr()); err == nil {
		t.Fatal("migration into a node killed mid-ship reported success")
	}
	if epoch := coord.PlanEpoch(); epoch != 1 {
		t.Fatalf("plan epoch after rolled-back migration = %d, want 1 (no bump)", epoch)
	}
	for _, g := range coord.Groups() {
		if len(g.Addrs) != 1 {
			t.Fatalf("block %s has %d replicas after rollback, want the original 1", g.Block, len(g.Addrs))
		}
	}
	flat := coord.Metrics().Flatten()
	if flat["elastic.rollbacks"] != 1 || flat["elastic.migrations"] != 0 {
		t.Fatalf("rollbacks = %d, migrations = %d; want 1, 0", flat["elastic.rollbacks"], flat["elastic.migrations"])
	}

	// No divergence: the old owner serves, and ingest still works.
	rows := []server.Row{{Coords: []int{0, 0, 0, 0}, Value: 3}}
	if _, _, err := coord.Delta(rows, 0); err != nil {
		t.Fatalf("ingest after rollback: %v", err)
	}
	acked := &ackedRows{}
	acked.add(rows)
	want := acked.oracle(t, ref)
	assertMatches(t, coord, want, "after rollback")
}

// TestRebalancePlannerDriven drives grow and shrink through the planner
// surface (the REBALANCE wire command): Rebalance(8) executes the four
// adds against previously announced nodes, RebalanceAuto converges, and
// Rebalance(6) drains the planner-chosen replicas.
func TestRebalancePlannerDriven(t *testing.T) {
	schema := testSchema(t)
	ds, ref := testData(t, schema)
	plan4, err := shard.NewPlan(schema.Names(), schema.Sizes(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, coord := startCluster(t, plan4, ds)
	mgr := New(coord, plan4, Options{Timeout: 2 * time.Second})

	plan8, _, err := plan4.Rebalance(8)
	if err != nil {
		t.Fatal(err)
	}
	// Rebalance before the new nodes exist must refuse whole.
	if _, err := mgr.Rebalance(8); err == nil {
		t.Fatal("rebalance to unannounced nodes succeeded")
	}
	// Joining the new nodes executes the adds; the follow-up Rebalance
	// then has nothing left to move.
	for id := 4; id < 8; id++ {
		n := startNode(t, plan8, id, nil, schema)
		if err := mgr.Join(n.Addr()); err != nil {
			t.Fatalf("joining node %d: %v", id, err)
		}
	}
	moves, err := mgr.Rebalance(8)
	if err != nil {
		t.Fatal(err)
	}
	if moves != 0 {
		t.Fatalf("rebalance after explicit joins executed %d moves, want 0", moves)
	}
	if moves, err := mgr.RebalanceAuto(); err != nil || moves != 0 {
		t.Fatalf("auto-rebalance on a converged cluster = (%d, %v), want (0, nil)", moves, err)
	}

	// Shrink through the planner: 8 -> 6 drains exactly two replicas.
	moves, err = mgr.Rebalance(6)
	if err != nil {
		t.Fatal(err)
	}
	if moves != 2 {
		t.Fatalf("rebalance 8->6 executed %d moves, want 2 drains", moves)
	}
	assertMatches(t, coord, ref, "after planner-driven shrink")
}
