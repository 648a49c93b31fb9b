package shard

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"parcube"
	"parcube/internal/server"
)

// fakeShard is the router's fault-injection harness, in the spirit of
// internal/comm.FaultyFabric: it completes the SHARDINFO/SCHEMA handshake
// honestly, then misbehaves on query commands according to mode —
// "hang" never answers, "err" replies ERR, "die" starts streaming a
// group-by and drops the connection mid-stream, "huge" answers a dense
// request with a header claiming more cells than any schema holds and
// keeps the connection open.
type fakeShard struct {
	ln     net.Listener
	info   server.ShardInfo
	schema string // the SCHEMA payload, e.g. "item:8 branch:6"
	mode   string

	mu     sync.Mutex
	hits   int // query commands received
	closed bool
}

func startFakeShard(t *testing.T, info server.ShardInfo, schema, mode string) *fakeShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeShard{ln: ln, info: info, schema: schema, mode: mode}
	go f.acceptLoop()
	t.Cleanup(f.close)
	return f
}

func (f *fakeShard) addr() string { return f.ln.Addr().String() }

func (f *fakeShard) close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	f.ln.Close()
}

func (f *fakeShard) queryHits() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits
}

func (f *fakeShard) acceptLoop() {
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		go f.serve(conn)
	}
}

func (f *fakeShard) serve(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		cmd := strings.ToUpper(strings.Fields(strings.TrimSpace(line))[0])
		switch cmd {
		case "SHARDINFO":
			fmt.Fprintf(conn, "OK id=%d op=%s block=%s\n", f.info.ID, f.info.Op, f.info.Block)
		case "SCHEMA":
			fmt.Fprintf(conn, "OK %s\n", f.schema)
		case "QUIT":
			fmt.Fprintln(conn, "OK bye")
			return
		default:
			f.mu.Lock()
			f.hits++
			f.mu.Unlock()
			switch f.mode {
			case "hang":
				// Swallow the request; the client's deadline must fire.
			case "err":
				fmt.Fprintln(conn, "ERR injected fault")
			case "die":
				if cmd == "TOTAL" || cmd == "VALUE" {
					// Drop the link mid-line, before the newline lands.
					fmt.Fprint(conn, "OK 9")
					return
				}
				// Claim a large table, stream two cells, drop the link.
				fmt.Fprintln(conn, "OK 960 8 6 5 4")
				conn.Write(make([]byte, 16))
				return
			case "huge":
				if cmd == "DENSE" {
					fmt.Fprintln(conn, "OK 99999999999 99999999999")
				} else {
					fmt.Fprintln(conn, "ERR injected fault")
				}
			}
		}
	}
}

// faultCluster starts one real shard node covering the whole array plus a
// fake replica for the same block, listed first so the coordinator
// prefers it, and returns a coordinator with tight timeouts.
func faultCluster(t *testing.T, mode string) (*Coordinator, *fakeShard, *parcube.Cube) {
	t.Helper()
	ds, cube := test4D(t)
	plan, err := NewPlan(ds.Schema().Names(), ds.Schema().Sizes(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	real, err := StartNode(plan, 0, ds, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { real.Close() })

	schemaFields := make([]string, 0, 4)
	names, sizes := ds.Schema().Names(), ds.Schema().Sizes()
	for i := range names {
		schemaFields = append(schemaFields, fmt.Sprintf("%s:%d", names[i], sizes[i]))
	}
	fake := startFakeShard(t, server.ShardInfo{
		ID:    1,
		Op:    "sum",
		Block: real.Block.String(),
	}, strings.Join(schemaFields, " "), mode)

	coord, err := NewCoordinator(Config{
		Addrs:   []string{fake.addr(), real.Addr()}, // fake is the preferred replica
		Timeout: 200 * time.Millisecond,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord, fake, cube
}

// assertFailover runs the query shapes against the coordinator and
// demands cell-exact equality with the reference despite the faulty
// preferred replica.
func assertFailover(t *testing.T, coord *Coordinator, fake *fakeShard, cube *parcube.Cube) {
	t.Helper()
	total, err := coord.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != cube.Total() {
		t.Fatalf("TOTAL = %v, want %v", total, cube.Total())
	}
	tbl, err := coord.GroupBy("item", "branch")
	if err != nil {
		t.Fatal(err)
	}
	want, err := cube.GroupBy("item", "branch")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Size() != want.Size() {
		t.Fatalf("size %d, want %d", tbl.Size(), want.Size())
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 6; j++ {
			if tbl.At(i, j) != want.At(i, j) {
				t.Fatalf("cell %d,%d = %v, want %v", i, j, tbl.At(i, j), want.At(i, j))
			}
		}
	}
	if fake.queryHits() == 0 {
		t.Fatal("fake shard never received a query — fault path not exercised")
	}
	s := coord.Stats()
	if s.Failovers == 0 || s.Errors == 0 || s.Retries == 0 {
		t.Fatalf("failover not recorded: %+v", s)
	}
	// The latency distributions must have seen every sub-request: one ask
	// observation per fan-out (each covering its retries and failover), and
	// at least one merge for the gathered group-by.
	if s.AskLatency.Count != s.Fanouts {
		t.Fatalf("ask latency saw %d of %d fan-outs", s.AskLatency.Count, s.Fanouts)
	}
	if s.AskLatency.Max <= 0 || s.AskLatency.P99 < s.AskLatency.P50 {
		t.Fatalf("implausible ask latency distribution: %+v", s.AskLatency)
	}
	if s.MergeLatency.Count == 0 {
		t.Fatalf("merge latency never recorded: %+v", s.MergeLatency)
	}
	// The snapshot and the exported registry are two views of one set of
	// counters; STATS consumers see the registry, so they must agree.
	reg := coord.Metrics().Flatten()
	if reg["retries"] != s.Retries || reg["failovers"] != s.Failovers ||
		reg["shard_errors"] != s.Errors || reg["fanouts"] != s.Fanouts {
		t.Fatalf("registry %v disagrees with snapshot %+v", reg, s)
	}
	if reg["ask_ns_count"] != s.AskLatency.Count || reg["merge_ns_count"] != s.MergeLatency.Count {
		t.Fatalf("registry histogram counts %v disagree with snapshot %+v", reg, s)
	}
}

func TestFailoverFromTimingOutShard(t *testing.T) {
	coord, fake, cube := faultCluster(t, "hang")
	assertFailover(t, coord, fake, cube)
}

func TestFailoverFromErroringShard(t *testing.T) {
	coord, fake, cube := faultCluster(t, "err")
	assertFailover(t, coord, fake, cube)
}

func TestFailoverFromShardDyingMidStream(t *testing.T) {
	coord, fake, cube := faultCluster(t, "die")
	assertFailover(t, coord, fake, cube)
}

// TestAllReplicasFaultySurfacesCause: with only the faulty shard serving
// the block, the final error must carry the block and the underlying
// cause instead of a partial table.
func TestAllReplicasFaultySurfacesCause(t *testing.T) {
	ds, _ := test4D(t)
	names, sizes := ds.Schema().Names(), ds.Schema().Sizes()
	schemaFields := make([]string, 0, 4)
	for i := range names {
		schemaFields = append(schemaFields, fmt.Sprintf("%s:%d", names[i], sizes[i]))
	}
	block := "[0:8,0:6,0:5,0:4]"
	fake := startFakeShard(t, server.ShardInfo{ID: 0, Op: "sum", Block: block},
		strings.Join(schemaFields, " "), "err")
	coord, err := NewCoordinator(Config{
		Addrs:   []string{fake.addr()},
		Timeout: 200 * time.Millisecond,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	_, err = coord.GroupBy("item")
	if err == nil {
		t.Fatal("query against all-faulty block succeeded")
	}
	for _, want := range []string{block, fake.addr(), "injected fault", "partial results discarded"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

// TestHandshakeRejectsMixedTopology: shards whose blocks do not tile the
// array, or that disagree on the operator, are rejected at startup.
func TestHandshakeRejectsMixedTopology(t *testing.T) {
	ds, _ := test4D(t)
	names, sizes := ds.Schema().Names(), ds.Schema().Sizes()
	schemaFields := make([]string, 0, 4)
	for i := range names {
		schemaFields = append(schemaFields, fmt.Sprintf("%s:%d", names[i], sizes[i]))
	}
	schema := strings.Join(schemaFields, " ")

	// Missing half the array.
	half := startFakeShard(t, server.ShardInfo{ID: 0, Op: "sum", Block: "[0:4,0:6,0:5,0:4]"}, schema, "err")
	if _, err := NewCoordinator(Config{Addrs: []string{half.addr()}}); err == nil ||
		!strings.Contains(err.Error(), "cover") {
		t.Fatalf("gappy topology accepted: %v", err)
	}

	// Operator disagreement.
	full := "[0:8,0:6,0:5,0:4]"
	sumShard := startFakeShard(t, server.ShardInfo{ID: 0, Op: "sum", Block: full}, schema, "err")
	maxShard := startFakeShard(t, server.ShardInfo{ID: 1, Op: "max", Block: full}, schema, "err")
	if _, err := NewCoordinator(Config{Addrs: []string{sumShard.addr(), maxShard.addr()}}); err == nil ||
		!strings.Contains(err.Error(), "aggregates with") {
		t.Fatalf("mixed operators accepted: %v", err)
	}
}
