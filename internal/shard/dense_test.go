package shard

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"parcube"
	"parcube/internal/server"
	"parcube/internal/wal"
)

// sparse4D is a 4-D fact table with 40 facts over 960 cells, signed
// integer measures: most group-by cells are empty, so Max and Min leave
// their ±Inf identities in them.
func sparse4D(t *testing.T) *parcube.Dataset {
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
	ds := parcube.NewDataset(schema)
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 40; i++ {
		err := ds.Add(float64(rng.Intn(41)-20), rng.Intn(8), rng.Intn(6), rng.Intn(5), rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// hedgedCoordinator boots 4 shard nodes (2 blocks, 2 replicas each),
// in-memory or durable, aggregating with op, behind a coordinator that
// hedges every read after 50µs, so both replicas of a block often answer
// and the race between them is exercised.
func hedgedCoordinator(t *testing.T, ds *parcube.Dataset, op parcube.Aggregator, durable bool) *Coordinator {
	t.Helper()
	plan, err := NewPlan(ds.Schema().Names(), ds.Schema().Sizes(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 4)
	for i := range addrs {
		var n *Node
		if durable {
			dopts := DurableOptions{DataDir: t.TempDir(), Fsync: wal.FsyncAlways, Op: op}
			n, err = StartDurableNode(plan, i, ds, "127.0.0.1:0", dopts, parcube.WithAggregator(op))
		} else {
			n, err = StartNode(plan, i, ds, "127.0.0.1:0", parcube.WithAggregator(op))
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		addrs[i] = n.Addr()
	}
	coord, err := NewCoordinator(Config{
		Addrs:       addrs,
		Timeout:     2 * time.Second,
		Backoff:     time.Millisecond,
		RejoinEvery: -1,
		Hedge:       true,
		HedgeDelay:  50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// assertSameBits checks a coordinator answer against the reference
// table: the same extents, and every cell the same float64 bits.
func assertSameBits(t *testing.T, what string, got server.Result, want *parcube.Table) {
	t.Helper()
	shape := want.Shape()
	if !slices.Equal(got.Shape(), shape) || got.Size() != want.Size() {
		t.Fatalf("%s: extents %v, want %v", what, got.Shape(), shape)
	}
	coords := make([]int, len(shape))
	for off := 0; off < want.Size(); off++ {
		if g, w := got.At(coords...), want.At(coords...); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: cell %v = %v, want %v", what, coords, g, w)
		}
		for i := len(coords) - 1; i >= 0; i-- {
			if coords[i]++; coords[i] < shape[i] {
				break
			}
			coords[i] = 0
		}
	}
}

// TestDenseHopMatchesBuild is the differential wall of the dense shard
// hop: every group-by and a set of statements, answered by a hedged
// coordinator over in-memory and over durable nodes, equal a single
// Build of the same facts bit for bit, under all four operators.
//
// The one exception is the full-dimensional group-by under Max and Min.
// A cube answers it from its raw input, 0 in every cell without a fact,
// so a node reads 0 rather than the identity in the cells of other
// blocks, and the coordinator's Max/Min fold lets those zeros win over
// a negative (Max) or positive (Min) fact. The text hop merged it the
// same way; the answer is wrong on both.
func TestDenseHopMatchesBuild(t *testing.T) {
	ds := sparse4D(t)
	stmts := []string{
		"GROUP BY item, branch WHERE time BETWEEN 1 AND 3",
		"GROUP BY region WHERE item = 2",
		"GROUP BY item WHERE item BETWEEN 3 AND 3", // a 1-cell result
		"WHERE branch = 2",                         // a 0-D result
		"GROUP BY time, region TOP 3",
	}
	for _, op := range []parcube.Aggregator{parcube.Sum, parcube.Count, parcube.Max, parcube.Min} {
		ref, _, err := parcube.Build(ds, parcube.WithAggregator(op))
		if err != nil {
			t.Fatal(err)
		}
		for _, durable := range []bool{false, true} {
			coord := hedgedCoordinator(t, ds, op, durable)
			where := op.String()
			if durable {
				where += " durable"
			}
			for _, dims := range dimSubsets(ds.Schema().Names()) {
				if len(dims) == 4 && (op == parcube.Max || op == parcube.Min) {
					continue
				}
				got, err := coord.GroupBy(dims...)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.GroupBy(dims...)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBits(t, where+" GROUPBY "+strings.Join(dims, ","), got, want)
			}
			for _, stmt := range stmts {
				got, err := coord.Query(stmt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Query(stmt)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBits(t, where+" QUERY "+stmt, got, want)
			}
		}
	}
}

// TestDenseDecodeErrorDiscardsConnection gives the coordinator a
// preferred replica whose dense replies claim more cells than the
// schema holds: the coordinator must refuse the reply before allocating
// for it, answer from the healthy replica, and throw the connection away
// rather than pool it.
func TestDenseDecodeErrorDiscardsConnection(t *testing.T) {
	coord, fake, cube := faultCluster(t, "huge")
	tbl, err := coord.GroupBy("item", "region")
	if err != nil {
		t.Fatal(err)
	}
	want, err := cube.GroupBy("item", "region")
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, "GROUPBY item,region", tbl, want)
	if fake.queryHits() == 0 {
		t.Fatal("the faulty replica was never asked")
	}
	rep := coord.groups()[0].replicaList()[0]
	if rep.addr != fake.addr() {
		t.Fatalf("preferred replica is %s, want the fake %s", rep.addr, fake.addr())
	}
	rep.pool.mu.Lock()
	idle := len(rep.pool.idle)
	rep.pool.mu.Unlock()
	if idle != 0 {
		t.Fatalf("%d connections to the faulty replica went back to the pool", idle)
	}
}

func TestValueOutOfSchemaOrderThroughCoordinator(t *testing.T) {
	ds, cube := test4D(t)
	cl := startCluster(t, ds, 4, 1)
	c, err := server.Dial(cl.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, err := cube.GroupBy("item", "region")
	if err != nil {
		t.Fatal(err)
	}
	for item := 0; item < 8; item++ {
		for region := 0; region < 4; region++ {
			ordered, err := c.Value([]string{"item", "region"}, []int{item, region})
			if err != nil {
				t.Fatal(err)
			}
			swapped, err := c.Value([]string{"region", "item"}, []int{region, item})
			if err != nil {
				t.Fatalf("VALUE region,item %d,%d: %v", region, item, err)
			}
			if want := tbl.At(item, region); ordered != want || swapped != want {
				t.Fatalf("VALUE item,region %d,%d = %v and VALUE region,item %d,%d = %v, want %v",
					item, region, ordered, region, item, swapped, want)
			}
		}
	}
}
