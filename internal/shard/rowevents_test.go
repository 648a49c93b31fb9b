package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"parcube"
	"parcube/internal/qcache"
	"parcube/internal/server"
)

// TestIngestEventCarriesEveryRowOfPartlyFailedRun checks the rows a
// committed run publishes: one record of the run is rejected (an overlap
// under MAX) and the others land, and the event still carries every row
// of the run, the rejected record's included, since a superset of what
// landed is what keeps row-aware invalidation safe.
func TestIngestEventCarriesEveryRowOfPartlyFailedRun(t *testing.T) {
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
	if err := ds.Add(5, 7, 5, 4, 3); err != nil { // the occupied cell
		t.Fatal(err)
	}
	dc := startLockstepPairCfg(t, ds, nil, parcube.WithAggregator(parcube.Max))
	var (
		mu     sync.Mutex
		events int
		seen   [][]int
		blocks []int
	)
	dc.coord.OnIngestRows(func(block int, rows []server.Row) {
		mu.Lock()
		defer mu.Unlock()
		events++
		for _, r := range rows {
			seen = append(seen, slices.Clone(r.Coords))
		}
	})
	dc.coord.OnIngest(func(block int) {
		mu.Lock()
		defer mu.Unlock()
		blocks = append(blocks, block)
	})

	recs := []server.LoggedDelta{
		{Rows: []server.Row{{Coords: blockCell(dc.nodes[0], 0), Value: 10}}},
		{Rows: []server.Row{{Coords: []int{7, 5, 4, 3}, Value: 1}}}, // overlaps: MAX rejects
		{Rows: []server.Row{{Coords: blockCell(dc.nodes[0], 1), Value: 30}}},
	}
	if _, applied, err := dc.coord.DeltaBatch(recs); err == nil || applied != 2 {
		t.Fatalf("batch applied %d records with error %v; want 2 and the overlap's error", applied, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if events != 1 || len(blocks) != 1 {
		t.Fatalf("%d row events and %d block events for one committed run, want 1 each", events, len(blocks))
	}
	for _, rec := range recs {
		want := rec.Rows[0].Coords
		if !slices.ContainsFunc(seen, func(c []int) bool { return slices.Equal(c, want) }) {
			t.Errorf("row %v missing from the run's event %v", want, seen)
		}
	}
}

// TestCachedQueriesExactUnderRandomDeltas is the seeded differential for
// row-aware invalidation: random WHERE-filtered statements and single
// cells are cached, random deltas land anywhere, and after every
// acknowledged delta each cached QUERY and VALUE answer must equal the
// uncached coordinator's. Entries whose box a delta missed must be
// served from the cache, or the test proves nothing.
func TestCachedQueriesExactUnderRandomDeltas(t *testing.T) {
	ds, _ := test4D(t)
	dc := startDurableCluster(t, ds, 4, 2)
	cached := qcache.Wrap(dc.coord, qcache.Config{})
	names, sizes := dc.coord.SchemaDims()
	rng := rand.New(rand.NewSource(46))

	var stmts []string
	for len(stmts) < 12 {
		perm := rng.Perm(len(names))
		group := perm[:1+rng.Intn(2)]
		filt := perm[len(group) : len(group)+1+rng.Intn(2)]
		var b strings.Builder
		b.WriteString("GROUP BY ")
		for i, a := range group {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(names[a])
		}
		for i, a := range filt {
			b.WriteString([]string{" WHERE ", " AND "}[min(i, 1)])
			if lo := rng.Intn(sizes[a]); rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "%s = %d", names[a], lo)
			} else {
				fmt.Fprintf(&b, "%s BETWEEN %d AND %d", names[a], lo, lo+rng.Intn(sizes[a]-lo))
			}
		}
		if rng.Intn(3) == 0 {
			b.WriteString(" TOP 3")
		}
		stmts = append(stmts, b.String())
	}
	type cell struct {
		dims   []string
		coords []int
	}
	var cells []cell
	for len(cells) < 8 {
		perm := rng.Perm(len(names))[:1+rng.Intn(3)]
		slices.Sort(perm) // VALUE names its dimensions in schema order
		var c cell
		for _, a := range perm {
			c.dims = append(c.dims, names[a])
			c.coords = append(c.coords, rng.Intn(sizes[a]))
		}
		cells = append(cells, c)
	}

	check := func(when string) {
		t.Helper()
		for _, stmt := range stmts {
			got, err := cached.Query(stmt)
			if err != nil {
				t.Fatalf("%s: cached %q: %v", when, stmt, err)
			}
			want, err := dc.coord.Query(stmt)
			if err != nil {
				t.Fatalf("%s: uncached %q: %v", when, stmt, err)
			}
			if !slices.Equal(got.Shape(), want.Shape()) {
				t.Fatalf("%s: %q shape %v, want %v", when, stmt, got.Shape(), want.Shape())
			}
			coords := make([]int, len(want.Shape()))
			for off := 0; off < want.Size(); off++ {
				if g, w := got.At(coords...), want.At(coords...); g != w {
					t.Fatalf("%s: %q cell %v = %v, uncached %v", when, stmt, coords, g, w)
				}
				for i := len(coords) - 1; i >= 0; i-- {
					if coords[i]++; coords[i] < want.Shape()[i] {
						break
					}
					coords[i] = 0
				}
			}
		}
		for _, c := range cells {
			got, err := cached.Value(c.dims, c.coords)
			if err != nil {
				t.Fatalf("%s: cached VALUE %v %v: %v", when, c.dims, c.coords, err)
			}
			if want, err := dc.coord.Value(c.dims, c.coords); err != nil || got != want {
				t.Fatalf("%s: VALUE %v %v = %v, uncached %v (%v)", when, c.dims, c.coords, got, want, err)
			}
		}
	}

	check("fill")
	hits := cached.Metrics().Counter("qcache.hits").Value()
	for i := 0; i < 30; i++ {
		rows := make([]server.Row, 1+rng.Intn(3))
		for j := range rows {
			coords := make([]int, len(sizes))
			for a, n := range sizes {
				coords[a] = rng.Intn(n)
			}
			rows[j] = server.Row{Coords: coords, Value: float64(rng.Intn(9) + 1)}
		}
		if i%2 == 0 || len(rows) == 1 {
			if _, _, err := cached.Delta(rows, 0); err != nil {
				t.Fatalf("delta %d: %v", i, err)
			}
		} else if _, _, err := cached.DeltaBatch([]server.LoggedDelta{{Rows: rows[:1]}, {Rows: rows[1:]}}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		check(fmt.Sprintf("after delta %d", i))
	}
	if kept := cached.Metrics().Counter("qcache.hits").Value() - hits; kept < 30*int64(len(stmts)+len(cells))/4 {
		t.Fatalf("only %d hits across 30 deltas: out-of-box entries are not being kept", kept)
	}
}

// TestMalformedBatchRecordLeavesQueuesFree checks that a batch refused
// for a malformed record (here an empty one after a valid one) enqueues
// nothing: before, the valid record stayed queued under a leader that
// never ran, and every later delta to its block waited forever.
func TestMalformedBatchRecordLeavesQueuesFree(t *testing.T) {
	ds, _ := test4D(t)
	dc := startDurableCluster(t, ds, 4, 2)
	row := server.Row{Coords: blockCell(dc.nodes[0], 0), Value: 1}
	if _, _, err := dc.coord.DeltaBatch([]server.LoggedDelta{{Rows: []server.Row{row}}, {}}); err == nil {
		t.Fatal("a batch with an empty record was accepted")
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := dc.coord.Delta([]server.Row{row}, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a delta after a refused batch never committed")
	}
}
