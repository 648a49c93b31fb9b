package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parcube"
	"parcube/internal/mux"
	"parcube/internal/server"
)

// writeFactsCSV writes a seeded 3-D fact table and returns its path plus
// the equivalent in-memory dataset for reference answers.
func writeFactsCSV(t *testing.T) (string, *parcube.Cube) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("A,B,C,value\n")
	schema, err := parcube.NewSchema(
		parcube.Dim{Name: "A", Size: 8},
		parcube.Dim{Name: "B", Size: 4},
		parcube.Dim{Name: "C", Size: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	ds := parcube.NewDataset(schema)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		a, b, c, v := rng.Intn(8), rng.Intn(4), rng.Intn(4), rng.Intn(20)+1
		fmt.Fprintf(&sb, "%d,%d,%d,%d\n", a, b, c, v)
		if err := ds.Add(float64(v), a, b, c); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "facts.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	cube, _, err := parcube.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	return path, cube
}

// TestClusterEndToEnd boots 4 shard nodes and a coordinator exactly as
// the command would, then checks wire answers against the local cube.
func TestClusterEndToEnd(t *testing.T) {
	path, cube := writeFactsCSV(t)
	var addrs []string
	for i := 0; i < 4; i++ {
		node, err := startShard("8x4x4", path, "127.0.0.1:0", 4, 2, i, durableOptions{}, false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		addrs = append(addrs, node.Addr())
	}
	// The full serving tier: hedged reads, the hot group-by cache with a
	// pinned-view budget, and a capped MUX window.
	srv, coord, _, bound, err := startCoordinator("127.0.0.1:0", coordOptions{
		shards: strings.Join(addrs, ","), timeout: 2 * time.Second, rejoinEvery: -1,
		cacheCells: 1 << 16, cachePin: 64, hedge: true, muxWindow: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); coord.Close() })

	c, err := server.Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	total, err := c.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != cube.Total() {
		t.Fatalf("TOTAL = %v, want %v", total, cube.Total())
	}
	rows, err := c.GroupBy("A", "C")
	if err != nil {
		t.Fatal(err)
	}
	want, err := cube.GroupBy("A", "C")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Value != want.At(row.Coords...) {
			t.Fatalf("cell %v = %v, want %v", row.Coords, row.Value, want.At(row.Coords...))
		}
	}

	// A second ask of the same group-by is a cache hit, visible in STATS.
	if _, err := c.GroupBy("A", "C"); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["qcache.hits"] == "" || stats["qcache.hits"] == "0" {
		t.Fatalf("no cache hits in STATS: %v", stats)
	}

	// The same answers arrive over a MUX upgrade (capped at window 16).
	mc, err := server.DialMux(bound, mux.Options{Window: 64, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if w := mc.Session().Window(); w != 16 {
		t.Fatalf("mux window = %d, want the configured cap 16", w)
	}
	mtotal, err := mc.Total()
	if err != nil {
		t.Fatal(err)
	}
	if mtotal != cube.Total() {
		t.Fatalf("mux TOTAL = %v, want %v", mtotal, cube.Total())
	}
}

// TestSingleNodeMatchesBuild pins the single-cube server: one node
// started with the defaults (-nodes 1 -replicas 1 -node 0) answers every
// query command exactly as parcube.Build of the same CSV, and SHARDINFO
// reports the whole cube as its block.
func TestSingleNodeMatchesBuild(t *testing.T) {
	path, cube := writeFactsCSV(t)
	node, err := startShard("8x4x4", path, "127.0.0.1:0", 1, 1, 0, durableOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	c, err := server.Dial(node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	info, err := c.ShardInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info["id"] != "0" || info["block"] != "[0:8,0:4,0:4]" {
		t.Fatalf("SHARDINFO = %v, want node 0 serving [0:8,0:4,0:4]", info)
	}
	total, err := c.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != cube.Total() {
		t.Fatalf("TOTAL = %v, want %v", total, cube.Total())
	}
	for _, dims := range [][]string{{"A"}, {"B", "C"}, {"A", "B", "C"}} {
		want, err := cube.GroupBy(dims...)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := c.GroupBy(dims...)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != want.Size() {
			t.Fatalf("GROUPBY %v: %d rows, want %d", dims, len(rows), want.Size())
		}
		for _, row := range rows {
			if row.Value != want.At(row.Coords...) {
				t.Fatalf("GROUPBY %v cell %v = %v, want %v", dims, row.Coords, row.Value, want.At(row.Coords...))
			}
			v, err := c.Value(dims, row.Coords)
			if err != nil || v != row.Value {
				t.Fatalf("VALUE %v %v = %v, %v; want %v", dims, row.Coords, v, err, row.Value)
			}
		}
		top, err := c.Top(5, dims...)
		if err != nil {
			t.Fatal(err)
		}
		wantTop := want.Top(5)
		if len(top) != len(wantTop) {
			t.Fatalf("TOP 5 %v: %d rows, want %d", dims, len(top), len(wantTop))
		}
		for i, row := range top {
			if row.Value != wantTop[i].Value || fmt.Sprint(row.Coords) != fmt.Sprint(wantTop[i].Coords) {
				t.Fatalf("TOP 5 %v rank %d = %v %v, want %v %v", dims, i, row.Coords, row.Value, wantTop[i].Coords, wantTop[i].Value)
			}
		}
	}
	const stmt = "GROUP BY A, C WHERE B BETWEEN 1 AND 2"
	want, err := cube.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != want.Size() {
		t.Fatalf("QUERY: %d rows, want %d", len(rows), want.Size())
	}
	for _, row := range rows {
		if row.Value != want.At(row.Coords...) {
			t.Fatalf("QUERY cell %v = %v, want %v", row.Coords, row.Value, want.At(row.Coords...))
		}
	}
}

// TestLoadFacts pins the loader's contract: blank lines are skipped and
// the header's names are ignored, so "x,y,value" loads as A and B.
func TestLoadFacts(t *testing.T) {
	schema, err := parcube.NewSchema(
		parcube.Dim{Name: "A", Size: 4},
		parcube.Dim{Name: "B", Size: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	in := "x,y,value\n0,0,1.5\n\n3,2,2\n\n1,1,-1\n"
	ds, err := loadFacts(strings.NewReader(in), schema)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Cells() != 3 {
		t.Fatalf("cells = %d, want 3", ds.Cells())
	}
	cube, _, err := parcube.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	if cube.Total() != 2.5 {
		t.Fatalf("total = %v, want 2.5", cube.Total())
	}
	byA, err := cube.GroupBy("A")
	if err != nil {
		t.Fatal(err)
	}
	if byA.At(3) != 2 || byA.At(1) != -1 {
		t.Fatalf("GROUPBY A = %v", byA.Values())
	}
}

func TestLoadFactsErrors(t *testing.T) {
	schema, err := parcube.NewSchema(parcube.Dim{Name: "A", Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{
		"",               // empty
		"A,value\nx,1\n", // bad coordinate
		"A,value\n0\n",   // short row
		"A,value\n0,z\n", // bad value
		"A,value\n9,1\n", // out of range
	} {
		if _, err := loadFacts(strings.NewReader(in), schema); err == nil {
			t.Fatalf("accepted %q", in)
		}
	}
}

func TestStartShardValidation(t *testing.T) {
	if _, err := startShard("", "-", "127.0.0.1:0", 1, 1, 0, durableOptions{}, false); err == nil {
		t.Fatal("missing shape accepted")
	}
	if _, err := startShard("8z4", "-", "127.0.0.1:0", 1, 1, 0, durableOptions{}, false); err == nil {
		t.Fatal("bad shape accepted")
	}
	path, _ := writeFactsCSV(t)
	if _, err := startShard("8x4x4", path, "127.0.0.1:0", 4, 1, 9, durableOptions{}, false); err == nil {
		t.Fatal("out-of-range node id accepted")
	}
}

func TestStartCoordinatorValidation(t *testing.T) {
	if _, _, _, _, err := startCoordinator("127.0.0.1:0", coordOptions{timeout: time.Second, rejoinEvery: -1}); err == nil {
		t.Fatal("missing shards accepted")
	}
	if _, _, _, _, err := startCoordinator("127.0.0.1:0", coordOptions{
		shards: "127.0.0.1:1", timeout: 200 * time.Millisecond, rejoinEvery: -1,
	}); err == nil {
		t.Fatal("unreachable shard accepted")
	}
}

// TestDurableShardRestartEndToEnd exercises the persistence flags the way
// the command wires them: a durable node ingests DELTAs over the wire, is
// torn down, and restarts with -in none — the cube must come back from
// the data directory alone, deltas included.
func TestDurableShardRestartEndToEnd(t *testing.T) {
	path, cube := writeFactsCSV(t)
	dir := t.TempDir()
	dopts := durableOptions{dir: dir, fsync: "always", checkpointEvery: 4}
	node, err := startShard("8x4x4", path, "127.0.0.1:0", 1, 1, 0, dopts, false)
	if err != nil {
		t.Fatal(err)
	}

	c, err := server.Dial(node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rows := []server.Row{
		{Coords: []int{0, 0, 0}, Value: 11},
		{Coords: []int{7, 3, 3}, Value: 5},
	}
	lsn, err := c.Delta(rows)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 1 {
		t.Fatalf("first delta acked at LSN %d", lsn)
	}
	c.Close()
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}

	restarted, err := startShard("8x4x4", "none", "127.0.0.1:0", 1, 1, 0, dopts, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close() })
	c2, err := server.Dial(restarted.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	total, err := c2.Total()
	if err != nil {
		t.Fatal(err)
	}
	if want := cube.Total() + 16; total != want {
		t.Fatalf("restarted TOTAL = %v, want %v", total, want)
	}

	// -in none without a data dir (or with an empty one) must refuse.
	if _, err := startShard("8x4x4", "none", "127.0.0.1:0", 1, 1, 0, durableOptions{}, false); err == nil {
		t.Fatal("-in none without -data-dir accepted")
	}
	fresh := durableOptions{dir: t.TempDir(), fsync: "always"}
	if _, err := startShard("8x4x4", "none", "127.0.0.1:0", 1, 1, 0, fresh, false); err == nil {
		t.Fatal("-in none with a checkpoint-less data dir accepted")
	}
	if _, err := startShard("8x4x4", path, "127.0.0.1:0", 1, 1, 0, durableOptions{dir: t.TempDir(), fsync: "sometimes"}, false); err == nil {
		t.Fatal("bad fsync policy accepted")
	}
}
