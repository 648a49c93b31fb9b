package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"testing"

	"parcube"
	"parcube/internal/comm"
)

// denseBytes renders a dense reply the way writeDense frames it.
func denseBytes(header string, vals ...float64) []byte {
	var buf bytes.Buffer
	buf.WriteString(header + "\n")
	if err := comm.WriteFloat64s(&buf, vals); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// assertDenseMatches checks a decoded reply against a local table, bit
// for bit, cell by cell in row-major order.
func assertDenseMatches(t *testing.T, what string, got *Table, want Result) {
	t.Helper()
	if !slices.Equal(got.Shape(), want.Shape()) || got.Size() != want.Size() {
		t.Fatalf("%s: extents %v with %d values, want %v", what, got.Shape(), got.Size(), want.Shape())
	}
	for i, w := range want.Values() {
		if v := got.Dense().Data()[i]; math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("%s: value %d = %v, want %v", what, i, v, w)
		}
	}
}

func TestDenseRepliesMatchTables(t *testing.T) {
	_, addr, cube := startServer(t)
	c, err := DialTimeout(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	limit := 6 * 4
	for _, dims := range [][]string{nil, {"item"}, {"branch"}, {"item", "branch"}} {
		got, err := c.GroupByDense(limit, dims...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cube.GroupBy(dims...)
		if err != nil {
			t.Fatal(err)
		}
		assertDenseMatches(t, "GROUPBY "+strings.Join(dims, ","), got, want)
	}
	for _, stmt := range []string{
		"GROUP BY item WHERE branch BETWEEN 1 AND 2",
		"GROUP BY branch WHERE branch BETWEEN 3 AND 3", // one cell
		"WHERE item = 4", // 0-D
	} {
		got, err := c.QueryDense(limit, stmt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cube.Query(stmt)
		if err != nil {
			t.Fatal(err)
		}
		assertDenseMatches(t, stmt, got, want)
	}
	// A rejected statement is a clean ERR: the connection stays in sync.
	if _, err := c.QueryDense(limit, "GROUP BY nope"); err == nil {
		t.Fatal("bad statement accepted")
	}
	if _, err := c.GroupByDense(limit-1, "item", "branch"); err == nil {
		t.Fatal("a reply over the limit was accepted")
	}
}

// TestDenseReplyCarriesNoCoordinates reads a dense reply off the wire:
// the header line, then exactly 8 bytes per cell.
func TestDenseReplyCarriesNoCoordinates(t *testing.T) {
	_, addr, cube := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "DENSE GROUPBY item,branch\nQUIT\n"); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := cube.GroupBy("item", "branch")
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 0, tbl.Size())
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			vals = append(vals, tbl.At(i, j))
		}
	}
	want := append(denseBytes("OK 24 6 4", vals...), "OK bye\n"...)
	if !bytes.Equal(raw, want) {
		t.Fatalf("reply is %d bytes, want %d: %q", len(raw), len(want), raw)
	}
}

func TestDenseFormOnlyForTables(t *testing.T) {
	srv, _, _ := startServer(t)
	for line, want := range map[string]string{
		"DENSE TOTAL":          "ERR DENSE takes GROUPBY or QUERY",
		"DENSE VALUE item 1":   "ERR DENSE takes GROUPBY or QUERY",
		"DENSE":                "ERR DENSE takes GROUPBY or QUERY",
		"dense groupby bogus":  "ERR ",
		"DENSE DENSE GROUPBY ": "ERR DENSE takes GROUPBY or QUERY",
	} {
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		srv.handle(nil, nil, w, line)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(out.String(), want) {
			t.Fatalf("%q answered %q, want prefix %q", line, out.String(), want)
		}
	}
}

// denseRejects are replies readDense must refuse without panicking; they
// seed FuzzDenseReply too. The limit is 64 cells.
var denseRejects = map[string][]byte{
	"malformed header":     denseBytes("OK four 2 2", 1, 2, 3, 4),
	"no count":             denseBytes("OK"),
	"zero extent":          denseBytes("OK 0 0"),
	"negative extent":      denseBytes("OK 4 -2 -2", 1, 2, 3, 4),
	"count vs extents":     denseBytes("OK 5 2 2", 1, 2, 3, 4, 5),
	"count above limit":    denseBytes("OK 65 65", 1),
	"extents above limit":  denseBytes("OK 4294967296 65536 65536"),
	"extents overflow":     denseBytes("OK 0 4294967296 4294967296 4294967296"),
	"short body":           denseBytes("OK 4 2 2", 1, 2, 3)[:len("OK 4 2 2\n")+20],
	"ERR line":             []byte("ERR shard: injected\n"),
	"no newline":           []byte("OK 1"),
	"text table":           []byte("OK 2\n0 1\n1 2\n.\n"),
	"empty":                nil,
	"overload":             []byte("ERR mux: overloaded: queue full at depth 4\n"),
	"binary garbage":       {0xff, 0x00, '\n', 1, 2},
	"header then nothing":  []byte("OK 1\n"),
	"float count":          denseBytes("OK 1.0", 1),
	"extent above int max": denseBytes("OK 1 99999999999999999999", 1),
}

func TestDenseReplyRejects(t *testing.T) {
	for name, in := range denseRejects {
		got, err := readDense(bufio.NewReader(bytes.NewReader(in)), 64)
		if err == nil {
			t.Errorf("%s: accepted as %+v", name, got)
		}
	}
	var remote *RemoteError
	if _, err := readDense(bufio.NewReader(bytes.NewReader(denseRejects["ERR line"])), 64); !errors.As(err, &remote) {
		t.Errorf("ERR line decoded as %v, want a *RemoteError", err)
	}
	// Every value survives bit for bit, the identities of Max and Min
	// and a negative zero included.
	vals := []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), math.NaN(), 1.5, -7}
	got, err := readDense(bufio.NewReader(bytes.NewReader(denseBytes("OK 6 3 2", vals...))), 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if math.Float64bits(got.Dense().Data()[i]) != math.Float64bits(v) {
			t.Fatalf("value %d = %v, want %v", i, got.Dense().Data()[i], v)
		}
	}
}

// FuzzDenseReply feeds arbitrary bytes to the dense reply decoder: it
// must never panic, and what it accepts must be a table of at most the
// limit's cells whose values fill its extents exactly.
func FuzzDenseReply(f *testing.F) {
	for _, in := range denseRejects {
		f.Add(in)
	}
	f.Add(denseBytes("OK 1", 42))
	f.Add(denseBytes("OK 6 2 3", 1, 2, 3, 4, 5, 6))
	const limit = 64
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := readDense(bufio.NewReader(bytes.NewReader(in)), limit)
		if err != nil {
			return
		}
		cells := 1
		for _, e := range got.Shape() {
			if e < 1 {
				t.Fatalf("accepted extent %d in %v", e, got.Shape())
			}
			cells *= e
		}
		if cells > limit || len(got.Dense().Data()) != cells {
			t.Fatalf("accepted %d values for extents %v (limit %d)", len(got.Dense().Data()), got.Shape(), limit)
		}
	})
}

func TestValueOutOfSchemaOrder(t *testing.T) {
	_, addr, cube := startServer(t)
	c, err := DialTimeout(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, err := cube.GroupBy("item", "branch")
	if err != nil {
		t.Fatal(err)
	}
	for item := 0; item < 6; item++ {
		for branch := 0; branch < 4; branch++ {
			ordered, err := c.Value([]string{"item", "branch"}, []int{item, branch})
			if err != nil {
				t.Fatal(err)
			}
			swapped, err := c.Value([]string{"branch", "item"}, []int{branch, item})
			if err != nil {
				t.Fatalf("VALUE branch,item %d,%d: %v", branch, item, err)
			}
			if want := tbl.At(item, branch); ordered != want || swapped != want {
				t.Fatalf("VALUE item,branch %d,%d = %v and VALUE branch,item %d,%d = %v, want %v",
					item, branch, ordered, branch, item, swapped, want)
			}
		}
	}
}

func TestSchemaOrder(t *testing.T) {
	names := []string{"a", "b", "c"}
	for _, tc := range []struct {
		dims, wantDims     []string
		coords, wantCoords []int
	}{
		{[]string{"c", "a"}, []string{"a", "c"}, []int{5, 7}, []int{7, 5}},
		{[]string{"a", "c"}, []string{"a", "c"}, []int{1, 2}, []int{1, 2}},
		{[]string{"b", "c", "a"}, []string{"a", "b", "c"}, []int{1, 2, 3}, []int{3, 1, 2}},
		{nil, nil, nil, nil},
		// Left for the backend to reject: unknown, repeated, uneven.
		{[]string{"c", "x"}, []string{"c", "x"}, []int{1, 2}, []int{1, 2}},
		{[]string{"c", "c"}, []string{"c", "c"}, []int{1, 2}, []int{1, 2}},
		{[]string{"c", "a", "c"}, []string{"c", "a", "c"}, []int{1, 2, 3}, []int{1, 2, 3}},
		{[]string{"c", "a"}, []string{"c", "a"}, []int{1}, []int{1}},
	} {
		d, c := SchemaOrder(names, tc.dims, tc.coords)
		if !slices.Equal(d, tc.wantDims) || !slices.Equal(c, tc.wantCoords) {
			t.Errorf("SchemaOrder(%v, %v) = %v, %v; want %v, %v", tc.dims, tc.coords, d, c, tc.wantDims, tc.wantCoords)
		}
	}
	if n := testing.AllocsPerRun(100, func() { SchemaOrder(names, []string{"a", "c"}, []int{1, 2}) }); n != 0 {
		t.Fatalf("ordered input allocated %v times", n)
	}
}

// replyTable is the 1024-cell group-by the reply benchmarks move.
func replyTable(b *testing.B) *parcube.Table {
	schema, err := parcube.NewSchema(parcube.Dim{Name: "x", Size: 32}, parcube.Dim{Name: "y", Size: 32})
	if err != nil {
		b.Fatal(err)
	}
	ds := parcube.NewDataset(schema)
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			if err := ds.Add(float64(i*32+j)+0.25, i, j); err != nil {
				b.Fatal(err)
			}
		}
	}
	cube, _, err := parcube.Build(ds)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := cube.GroupBy("x", "y")
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

// BenchmarkDenseReply encodes a 1024-cell group-by as a dense reply and
// decodes it, the shard hop's per-block codec cost: an in-memory node
// copies its cube's table out (TableOf) before writing it.
func BenchmarkDenseReply(b *testing.B) {
	tbl := replyTable(b)
	var wire bytes.Buffer
	w := bufio.NewWriter(&wire)
	r := bufio.NewReader(&wire)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeDense(w, TableOf(tbl))
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		got, err := readDense(r, 1024)
		if err != nil || got.Size() != 1024 {
			b.Fatalf("decoded %v: %v", got, err)
		}
	}
}

// BenchmarkTextReply moves the same table as text lines, the form every
// client but the coordinator reads: writeTable then parseRows.
func BenchmarkTextReply(b *testing.B) {
	tbl := replyTable(b)
	srv := NewBackend(nil)
	var wire bytes.Buffer
	w := bufio.NewWriter(&wire)
	r := bufio.NewReader(&wire)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.writeTable(w, tbl)
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		line, err := r.ReadString('\n')
		if err != nil || line != "OK 1024\n" {
			b.Fatalf("header %q: %v", line, err)
		}
		rows, err := parseRows(r, 1024, nil)
		if err != nil || len(rows) != 1024 {
			b.Fatalf("decoded %d rows: %v", len(rows), err)
		}
	}
}
