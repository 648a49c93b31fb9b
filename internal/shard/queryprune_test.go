package shard

import (
	"fmt"
	"testing"
	"time"

	"parcube"
	"parcube/internal/server"
)

// singleReplicaCoordinator boots nodes shard nodes of one replica each,
// aggregating with op, behind a coordinator.
func singleReplicaCoordinator(t *testing.T, ds *parcube.Dataset, op parcube.Aggregator, nodes int) *Coordinator {
	t.Helper()
	plan, err := NewPlan(ds.Schema().Names(), ds.Schema().Sizes(), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, nodes)
	for i := range addrs {
		n, err := StartNode(plan, i, ds, "127.0.0.1:0", parcube.WithAggregator(op))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		addrs[i] = n.Addr()
	}
	coord, err := NewCoordinator(Config{Addrs: addrs, Timeout: 2 * time.Second, Backoff: time.Millisecond, RejoinEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// unprunedQuery is Coordinator.Query asking every block group, as it
// did before pruning.
func unprunedQuery(c *Coordinator, stmt string) (server.Result, error) {
	return c.gatherDense(c.groups(), func(cl *server.Client, limit int) (*server.Table, error) {
		return cl.QueryDense(limit, stmt)
	})
}

// pruneCases are statements over sparse4D's schema (item 8, branch 6,
// time 5, region 4) with the block groups each must ask on the 2-block
// plan (cut on item at 4) and the 4-block plan (item at 4, branch at 3).
var pruneCases = []struct {
	stmt         string
	asks2, asks4 int
}{
	{"", 2, 4},
	{"GROUP BY time, region TOP 3", 2, 4},
	{"GROUP BY item, branch WHERE time BETWEEN 1 AND 3", 2, 4},
	{"GROUP BY region WHERE item = 2", 1, 2},
	{"GROUP BY region WHERE item = 5 AND branch = 4", 1, 1},
	{"GROUP BY time WHERE item BETWEEN 2 AND 5", 2, 4},
	{"GROUP BY time WHERE item BETWEEN 4 AND 7 AND branch BETWEEN 0 AND 2", 1, 1},
	{"GROUP BY item WHERE item BETWEEN 3 AND 3", 1, 2},
	{"WHERE branch = 2", 2, 2},
	{"GROUP BY branch WHERE item BETWEEN 0 AND 7 AND item = 6", 1, 2},
	{"GROUP BY item, time WHERE branch BETWEEN 3 AND 5 AND region = 1", 2, 2},
	{"GROUP BY region, item WHERE item BETWEEN 1 AND 2 AND time BETWEEN 0 AND 3", 1, 2},
}

// askedBy runs one query and returns the block groups it asked.
func askedBy(t *testing.T, c *Coordinator, stmt string) (server.Result, int64, error) {
	t.Helper()
	before := c.Stats().Fanouts
	got, err := c.Query(stmt)
	return got, c.Stats().Fanouts - before, err
}

// TestQueryPrunesFanout: a QUERY asks only the block groups whose block
// meets its WHERE box, on 2- and 4-block plans and behind a hedged
// coordinator, and still answers with the bits of one Build of the same
// facts, under every operator (sparse4D's facts are signed, so Max and
// Min see negative values beside empty cells).
func TestQueryPrunesFanout(t *testing.T) {
	ds := sparse4D(t)
	for _, op := range []parcube.Aggregator{parcube.Sum, parcube.Count, parcube.Max, parcube.Min} {
		ref, _, err := parcube.Build(ds, parcube.WithAggregator(op))
		if err != nil {
			t.Fatal(err)
		}
		for _, setup := range []struct {
			name  string
			coord *Coordinator
			four  bool
		}{
			{"2 blocks", singleReplicaCoordinator(t, ds, op, 2), false},
			{"4 blocks", singleReplicaCoordinator(t, ds, op, 4), true},
			{"2 blocks hedged", hedgedCoordinator(t, ds, op, false), false},
		} {
			for _, tc := range pruneCases {
				what := fmt.Sprintf("%v %s %q", op, setup.name, tc.stmt)
				got, asks, err := askedBy(t, setup.coord, tc.stmt)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				want := int64(tc.asks2)
				if setup.four {
					want = int64(tc.asks4)
				}
				if asks != want {
					t.Errorf("%s: asked %d block groups, want %d", what, asks, want)
				}
				ans, err := ref.Query(tc.stmt)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBits(t, what, got, ans)
			}
		}
	}
}

// TestQueryErrorsUnpruned: a statement the nodes refuse (malformed,
// naming an unknown dimension, or filtering outside an extent) goes to
// every block group and fails with the very error the unpruned
// coordinator returned, even where its WHERE box alone would have
// pruned.
func TestQueryErrorsUnpruned(t *testing.T) {
	ds := sparse4D(t)
	for _, nodes := range []int{2, 4} {
		coord := singleReplicaCoordinator(t, ds, parcube.Sum, nodes)
		for _, stmt := range []string{
			"GROUP item",
			"GROUP BY item WHERE time = x",
			"GROUP BY bogus WHERE item = 0",
			"GROUP BY region WHERE bogus BETWEEN 0 AND 1 AND item = 5",
			"GROUP BY item, item WHERE item BETWEEN 4 AND 7",
			"GROUP BY time WHERE item BETWEEN 5 AND 99",
			"GROUP BY time WHERE item BETWEEN -1 AND 2",
			"WHERE item = 9",
			"GROUP BY time WHERE item BETWEEN 4 AND 7 AND item = 1",
			"GROUP BY item WHERE item = 1",
		} {
			_, asks, err := askedBy(t, coord, stmt)
			_, wantErr := unprunedQuery(coord, stmt)
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Errorf("%d nodes %q: error %v, unpruned %v", nodes, stmt, err, wantErr)
			}
			if asks != int64(nodes) {
				t.Errorf("%d nodes %q: asked %d block groups, want all %d", nodes, stmt, asks, nodes)
			}
		}
	}
}
