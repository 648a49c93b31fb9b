package server

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"parcube"
	"parcube/internal/mux"
)

func testCube(t *testing.T) *parcube.Cube {
	t.Helper()
	schema, err := parcube.NewSchema(
		parcube.Dim{Name: "item", Size: 6},
		parcube.Dim{Name: "branch", Size: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	ds := parcube.NewDataset(schema)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if err := ds.Add(float64(rng.Intn(9)+1), rng.Intn(6), rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
	}
	cube, _, err := parcube.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

func startServer(t *testing.T) (*Server, string, *parcube.Cube) {
	t.Helper()
	cube := testCube(t)
	srv := New(cube)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, cube
}

func TestClientServerRoundTrip(t *testing.T) {
	_, addr, cube := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	schema, err := c.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) != 2 || schema[0] != "item:6" || schema[1] != "branch:4" {
		t.Fatalf("schema = %v", schema)
	}

	total, err := c.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != cube.Total() {
		t.Fatalf("total = %v, want %v", total, cube.Total())
	}

	byItem, err := c.GroupBy("item")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := cube.GroupBy("item")
	if len(byItem) != 6 {
		t.Fatalf("%d rows", len(byItem))
	}
	for _, row := range byItem {
		if row.Value != want.At(row.Coords...) {
			t.Fatalf("row %v mismatch", row)
		}
	}

	v, err := c.Value([]string{"item", "branch"}, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ib, _ := cube.GroupBy("item", "branch")
	if v != ib.At(2, 3) {
		t.Fatalf("value = %v", v)
	}

	top, err := c.Top(3, "item")
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 || top[0].Value < top[1].Value {
		t.Fatalf("top = %v", top)
	}
}

func TestGrandTotalQueries(t *testing.T) {
	_, addr, cube := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.GroupBy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Value != cube.Total() {
		t.Fatalf("grand total rows = %v", rows)
	}
}

func TestServerErrors(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.GroupBy("bogus"); err == nil {
		t.Fatal("bogus dimension accepted")
	}
	if _, err := c.Value([]string{"item"}, []int{99}); err == nil {
		t.Fatal("out-of-range value accepted")
	}
	if _, err := c.Value([]string{"item"}, []int{1, 2}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	// Connection still usable after errors.
	if _, err := c.Total(); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
}

func TestServerRawProtocol(t *testing.T) {
	_, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(s string) string {
		if _, err := conn.Write([]byte(s + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(line)
	}
	if got := send("NONSENSE"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("unknown command -> %q", got)
	}
	if got := send("TOP"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("bare TOP -> %q", got)
	}
	if got := send("TOP x item"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("bad TOP count -> %q", got)
	}
	if got := send("QUIT"); got != "OK bye" {
		t.Fatalf("QUIT -> %q", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr, cube := startServer(t)
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			c, err := Dial(addr)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				total, err := c.Total()
				if err != nil {
					done <- err
					return
				}
				if total != cube.Total() {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerQueryCommand(t *testing.T) {
	_, addr, cube := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Query("GROUP BY item WHERE branch = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	ib, _ := cube.GroupBy("item", "branch")
	for _, row := range rows {
		if row.Value != ib.At(row.Coords[0], 1) {
			t.Fatalf("row %+v mismatch", row)
		}
	}
	if _, err := c.Query("GROUP BY nonsense"); err == nil {
		t.Fatal("bad query accepted")
	}
	// Connection still alive.
	if _, err := c.Total(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCommand(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Total(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GroupBy("item"); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["queries"] != "2" {
		t.Fatalf("queries = %q, want 2 (stats %v)", stats["queries"], stats)
	}
	// TOTAL returned 1 cell, GROUPBY item returned 6.
	if stats["cells"] != "7" {
		t.Fatalf("cells = %q, want 7 (stats %v)", stats["cells"], stats)
	}
	if _, ok := stats["uptime_sec"]; !ok {
		t.Fatalf("no uptime in %v", stats)
	}
	// The serving-tier counters ride the same registry: no mux client
	// has connected, so upgrades must report zero but still register.
	if stats["mux.upgrades"] != "0" {
		t.Fatalf("mux.upgrades = %q, want 0 (stats %v)", stats["mux.upgrades"], stats)
	}
}

func TestStatsReportsAdmissionMetrics(t *testing.T) {
	cube := testCube(t)
	srv := New(cube)
	srv.ConfigureAdmission(mux.AdmissionConfig{MaxInFlight: 4, MaxQueue: 8})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Total(); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// TOTAL and STATS itself were admitted; the in-flight high-water
	// mark saw at least the STATS request.
	for _, key := range []string{"mux.inflight", "mux.queued", "mux.admitted", "mux.overloads", "mux.expired"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("%s missing from stats %v", key, stats)
		}
	}
	if n, err := strconv.Atoi(stats["mux.admitted"]); err != nil || n < 2 {
		t.Fatalf("mux.admitted = %q, want >= 2", stats["mux.admitted"])
	}
	if n, err := strconv.Atoi(stats["mux.inflight"]); err != nil || n < 1 {
		t.Fatalf("mux.inflight = %q, want >= 1", stats["mux.inflight"])
	}
}

func TestShardInfoHandshake(t *testing.T) {
	cube := testCube(t)
	srv := New(cube)
	srv.SetShardInfo(ShardInfo{ID: 3, Op: "sum", Block: "[0:6,0:4]"})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.ShardInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info["id"] != "3" || info["op"] != "sum" || info["block"] != "[0:6,0:4]" {
		t.Fatalf("shard info = %v", info)
	}
}

func TestShardInfoOnPlainServer(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ShardInfo(); err == nil {
		t.Fatal("plain server answered SHARDINFO")
	}
}

func TestReadTimeoutDropsStalledClient(t *testing.T) {
	cube := testCube(t)
	srv := New(cube)
	srv.ReadTimeout = 50 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing: the server must hang up rather than pin the goroutine.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("stalled connection not dropped")
	}
}

func TestClientTimeoutAgainstSilentServer(t *testing.T) {
	// A listener that accepts but never answers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(50 * time.Millisecond)
	if _, err := c.Total(); err == nil {
		t.Fatal("request against silent server did not time out")
	}
}

// deltaBackend wraps the cube backend with an in-memory log, standing in
// for a durable shard node in protocol tests.
type deltaBackend struct {
	cubeBackend
	mu   sync.Mutex
	recs []LoggedDelta
}

func (b *deltaBackend) Delta(rows []Row, lsn uint64) (uint64, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	last := uint64(len(b.recs))
	switch {
	case lsn == 0:
		lsn = last + 1
	case lsn <= last:
		return lsn, false, nil // idempotent redelivery
	case lsn > last+1:
		return 0, false, fmt.Errorf("gap: lsn %d after %d", lsn, last)
	}
	for _, row := range rows {
		if len(row.Coords) != b.cube.Schema().Dims() {
			return 0, false, fmt.Errorf("rank %d row", len(row.Coords))
		}
	}
	b.recs = append(b.recs, LoggedDelta{LSN: lsn, Rows: rows})
	return lsn, true, nil
}

func (b *deltaBackend) DeltasSince(lsn uint64) ([]LoggedDelta, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []LoggedDelta
	for _, rec := range b.recs {
		if rec.LSN > lsn {
			out = append(out, rec)
		}
	}
	return out, nil
}

func (b *deltaBackend) LastLSN() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return uint64(len(b.recs))
}

func TestDeltaProtocolRoundTrip(t *testing.T) {
	backend := &deltaBackend{cubeBackend: cubeBackend{cube: testCube(t)}}
	srv := NewBackend(backend)
	srv.SetShardInfo(ShardInfo{ID: 3, Op: "sum", Block: "[0:6,0:4]"})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	lsn, err := c.Delta([]Row{{Coords: []int{1, 1}, Value: 4}, {Coords: []int{2, 3}, Value: 2}})
	if err != nil || lsn != 1 {
		t.Fatalf("Delta = %d, %v", lsn, err)
	}
	at := func(lsn uint64, v float64) []LoggedDelta {
		return []LoggedDelta{{LSN: lsn, Rows: []Row{{Coords: []int{0, 0}, Value: v}}}}
	}
	_, applied, err := c.DeltaBatch(at(2, 7))
	if err != nil || applied != 1 {
		t.Fatalf("DeltaBatch at 2 = %v, %v", applied, err)
	}
	_, applied, err = c.DeltaBatch(at(2, 7))
	if err != nil || applied != 0 {
		t.Fatalf("duplicate DeltaBatch at 2 = %v, %v", applied, err)
	}
	if _, _, err := c.DeltaBatch(at(9, 1)); err == nil {
		t.Fatal("gapped DeltaBatch accepted")
	}
	if _, err := c.Delta([]Row{{Coords: []int{0}, Value: 1}}); err == nil {
		t.Fatal("wrong-rank delta accepted")
	}

	// SHARDINFO reports the durable high-water mark.
	info, err := c.ShardInfo()
	if err != nil || info["lsn"] != "2" {
		t.Fatalf("ShardInfo = %v, %v", info, err)
	}

	// The tail since LSN 1 is record 2 only; since 0 both records.
	tail, err := c.DeltasSince(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0].LSN != 2 || len(tail[0].Rows) != 1 || tail[0].Rows[0].Value != 7 {
		t.Fatalf("DeltasSince(1) = %+v", tail)
	}
	all, err := c.DeltasSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].LSN != 1 || len(all[0].Rows) != 2 || all[1].LSN != 2 {
		t.Fatalf("DeltasSince(0) = %+v", all)
	}

	// The connection survives a payload-complete error and stays in sync.
	if total, err := c.Total(); err != nil || total == 0 {
		t.Fatalf("Total after delta errors = %v, %v", total, err)
	}
}

func TestDeltaOnReadOnlyServer(t *testing.T) {
	_, addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Delta([]Row{{Coords: []int{1, 1}, Value: 4}}); err == nil {
		t.Fatal("read-only server accepted a delta")
	}
	if _, err := c.DeltasSince(0); err == nil {
		t.Fatal("read-only server served a log tail")
	}
	// The payload was fully drained: the next request still works.
	if _, err := c.Total(); err != nil {
		t.Fatal(err)
	}
}

// pacedBackend is a deltaBackend that ingests natively batched, records
// the length of every run it is handed, and takes perRecord to apply
// each record — the knob Replay's pacing reacts to.
type pacedBackend struct {
	deltaBackend
	perRecord time.Duration
	runs      []int
}

func (b *pacedBackend) DeltaBatch(recs []LoggedDelta) (uint64, int, error) {
	b.mu.Lock()
	b.runs = append(b.runs, len(recs))
	b.mu.Unlock()
	time.Sleep(time.Duration(len(recs)) * b.perRecord)
	applied := 0
	for i, rec := range recs {
		_, ok, err := b.Delta(rec.Rows, rec.LSN)
		if err != nil {
			return b.LastLSN(), applied, fmt.Errorf("batch record %d: %w", i, err)
		}
		if ok {
			applied++
		}
	}
	return b.LastLSN(), applied, nil
}

// TestReplayRuns pins how Client.Replay cuts a catch-up window into
// DELTABATCH runs: doubling from replayStartRun up to the server's
// record limit when acks come back fast, and no further once a run's
// round trip reaches an eighth of the request timeout.
func TestReplayRuns(t *testing.T) {
	window := func(n int) []LoggedDelta {
		recs := make([]LoggedDelta, n)
		for i := range recs {
			recs[i] = LoggedDelta{LSN: uint64(i + 1), Rows: []Row{{Coords: []int{i % 6, i % 4}, Value: 1}}}
		}
		return recs
	}
	replay := func(b *pacedBackend, timeout time.Duration, n int) []int {
		t.Helper()
		srv := NewBackend(b)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetTimeout(timeout)
		last, applied, err := c.Replay(window(n))
		if err != nil || last != uint64(n) || applied != n {
			t.Fatalf("Replay = lsn %d, applied %d, %v; want %d, %d", last, applied, err, n, n)
		}
		return b.runs
	}

	fast := &pacedBackend{deltaBackend: deltaBackend{cubeBackend: cubeBackend{cube: testCube(t)}}}
	got := replay(fast, 0, 9000)
	want := []int{32, 64, 128, 256, 512, 1024, 2048, maxBatchRecords, 840}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("unpaced runs = %v, want %v", got, want)
	}

	// 1ms per record against a 400ms timeout: a run of 64 takes at least
	// 64ms, past the 50ms bar, so no run may ever be longer than 64.
	slow := &pacedBackend{deltaBackend: deltaBackend{cubeBackend: cubeBackend{cube: testCube(t)}}, perRecord: time.Millisecond}
	for _, run := range replay(slow, 400*time.Millisecond, 300) {
		if run > 64 {
			t.Fatalf("paced runs = %v; a run grew past 64 records", slow.runs)
		}
	}
}
