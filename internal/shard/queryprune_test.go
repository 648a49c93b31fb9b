package shard

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
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

// refusedStatements are statements over sparse4D's schema that a cube
// refuses: malformed, naming an unknown or repeated dimension, or
// filtering outside an extent, some with a WHERE box that alone would
// have pruned.
var refusedStatements = []string{
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
}

// queryReplies sends each statement as a QUERY to the server at addr and
// returns the raw reply bytes of the whole session.
func queryReplies(t *testing.T, addr string, stmts []string) []byte {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var req strings.Builder
	for _, stmt := range stmts {
		fmt.Fprintf(&req, "QUERY %s\n", stmt)
	}
	req.WriteString("QUIT\n")
	if _, err := io.WriteString(conn, req.String()); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestQueryRefusedAtCoordinator: a statement a cube refuses is refused by
// the coordinator itself, asking no block group and counting no retry or
// shard error, on 2- and 4-block plans; in front of it, the reply is
// byte for byte a one-node cubeshard's (a node serving the whole cube).
func TestQueryRefusedAtCoordinator(t *testing.T) {
	ds := sparse4D(t)
	plan, err := NewPlan(ds.Schema().Names(), ds.Schema().Sizes(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := StartNode(plan, 0, ds, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { whole.Close() })
	want := queryReplies(t, whole.Addr(), refusedStatements)
	if n := bytes.Count(want, []byte("\nERR ")) + bytes.Count(want[:4], []byte("ERR ")); n != len(refusedStatements) {
		t.Fatalf("the one-node server refused %d of %d statements:\n%s", n, len(refusedStatements), want)
	}
	for _, nodes := range []int{2, 4} {
		coord := singleReplicaCoordinator(t, ds, parcube.Sum, nodes)
		for _, stmt := range refusedStatements {
			_, asks, err := askedBy(t, coord, stmt)
			if err == nil {
				t.Errorf("%d nodes %q: answered", nodes, stmt)
			}
			if asks != 0 {
				t.Errorf("%d nodes %q: asked %d block groups, want none", nodes, stmt, asks)
			}
		}
		if st := coord.Stats(); st.Retries != 0 || st.Errors != 0 {
			t.Errorf("%d nodes: retries=%d shard errors=%d after refusals", nodes, st.Retries, st.Errors)
		}
		front := server.NewBackend(coord)
		addr, err := front.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if got := queryReplies(t, addr, refusedStatements); !bytes.Equal(got, want) {
			t.Errorf("%d nodes: front replies\n%s\nwant the one-node server's\n%s", nodes, got, want)
		}
		if err := front.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
