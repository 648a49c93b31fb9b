package shard

import (
	"strings"
	"sync"
	"testing"

	"parcube"
	"parcube/internal/qcache"
	"parcube/internal/server"
)

// assertCachedMatches checks the cached coordinator's total, group-bys,
// and single-cell values cell-for-cell against both the reference cube
// and the uncached coordinator underneath it.
func assertCachedMatches(t *testing.T, cached *qcache.Cache, raw *Coordinator, ref *parcube.Cube, when string) {
	t.Helper()
	total, err := cached.Total()
	if err != nil {
		t.Fatalf("%s: cached TOTAL: %v", when, err)
	}
	if want := ref.Total(); total != want {
		t.Fatalf("%s: cached TOTAL = %v, want %v", when, total, want)
	}
	rawTotal, err := raw.Total()
	if err != nil {
		t.Fatalf("%s: raw TOTAL: %v", when, err)
	}
	if total != rawTotal {
		t.Fatalf("%s: cached TOTAL = %v, uncached = %v", when, total, rawTotal)
	}
	for _, dims := range [][]string{{"item", "region"}, {"item"}, {"branch", "time"}} {
		got, err := cached.GroupBy(dims...)
		if err != nil {
			t.Fatalf("%s: cached GROUPBY %v: %v", when, dims, err)
		}
		want, err := ref.GroupBy(dims...)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size() != want.Size() {
			t.Fatalf("%s: GROUPBY %v size %d, want %d", when, dims, got.Size(), want.Size())
		}
		shape := want.Shape()
		coords := make([]int, len(shape))
		for off := 0; off < want.Size(); off++ {
			if g, w := got.At(coords...), want.At(coords...); g != w {
				t.Fatalf("%s: GROUPBY %v cell %v = %v, want %v", when, dims, coords, g, w)
			}
			for i := len(coords) - 1; i >= 0; i-- {
				coords[i]++
				if coords[i] < shape[i] {
					break
				}
				coords[i] = 0
			}
		}
	}
	ib, err := ref.GroupBy("item", "branch")
	if err != nil {
		t.Fatal(err)
	}
	for _, coords := range [][]int{{0, 0}, {3, 2}, {7, 5}} {
		v, err := cached.Value([]string{"item", "branch"}, coords)
		if err != nil {
			t.Fatalf("%s: cached VALUE %v: %v", when, coords, err)
		}
		if v != ib.At(coords...) {
			t.Fatalf("%s: cached VALUE %v = %v, want %v", when, coords, v, ib.At(coords...))
		}
	}
}

// TestCachedCoordinatorDifferentialUnderDeltas is the serving-tier
// acceptance test: a qcache-wrapped coordinator is hammered by
// concurrent readers while a delta stream flows through it, and at every
// quiescent barrier (delta acked; invalidation is synchronous with the
// ack) the cached answers must be cell-exact against the reference cube
// and the uncached path. Run under -race this also proves the
// fill/invalidate paths are data-race free.
func TestCachedCoordinatorDifferentialUnderDeltas(t *testing.T) {
	ds, ref := test4D(t)
	dc := startDurableCluster(t, ds, 4, 2)
	cached := qcache.Wrap(dc.coord, qcache.Config{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are tolerated mid-stream (the cluster is being
				// written to); exactness is asserted at the barriers.
				switch (i + w) % 3 {
				case 0:
					_, _ = cached.Total()
				case 1:
					_, _ = cached.GroupBy("item", "region")
				default:
					_, _ = cached.Value([]string{"item"}, []int{i % 8})
				}
			}
		}(w)
	}

	for i := 0; i < 8; i++ {
		rows := []server.Row{
			{Coords: blockCell(dc.nodes[0], i), Value: float64(i + 1)},
			{Coords: blockCell(dc.nodes[1], i), Value: float64(2*i + 3)},
		}
		if _, _, err := cached.Delta(rows, 0); err != nil {
			t.Fatalf("delta %d through cache: %v", i, err)
		}
		applyRef(t, ref, rows)
		assertCachedMatches(t, cached, dc.coord, ref, "barrier")
	}
	close(stop)
	wg.Wait()
	assertCachedMatches(t, cached, dc.coord, ref, "after stream")

	m := cached.Metrics().Flatten()
	if m["qcache.hits"] == 0 || m["qcache.fills"] == 0 {
		t.Fatalf("cache never effective under the stream: %v", m)
	}
	if m["qcache.invalidations"] == 0 {
		t.Fatalf("delta stream produced no invalidations: %v", m)
	}

	// Steady state: a repeated hot group-by is absorbed by the cache —
	// the coordinator sees no new fan-outs.
	if _, err := cached.GroupBy("item", "region"); err != nil {
		t.Fatal(err)
	}
	before := dc.coord.Stats().Fanouts
	for i := 0; i < 5; i++ {
		if _, err := cached.GroupBy("item", "region"); err != nil {
			t.Fatal(err)
		}
	}
	if after := dc.coord.Stats().Fanouts; after != before {
		t.Fatalf("hot group-by still fans out: %d -> %d", before, after)
	}
}

// TestDurableKillNineRejoinCachedHedged reruns the kill -9 acceptance
// scenario with the full serving tier in front of the coordinator:
// hedged reads enabled and every query answered through the
// delta-invalidated cache. Crash, single-copy ingest, rejoin, and
// peer-loss must all stay cell-exact through the cache.
func TestDurableKillNineRejoinCachedHedged(t *testing.T) {
	ds, ref := test4D(t)
	dc := startDurableClusterCfg(t, ds, 4, 2, func(cfg *Config) {
		cfg.Hedge = true
	})
	cached := qcache.Wrap(dc.coord, qcache.Config{})

	ingest := func(i int, value float64) {
		t.Helper()
		rows := []server.Row{{Coords: blockCell(dc.nodes[0], i), Value: value}}
		if _, _, err := cached.Delta(rows, 0); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		applyRef(t, ref, rows)
	}

	for i := 0; i < 5; i++ {
		ingest(i, float64(i+1))
	}
	assertCachedMatches(t, cached, dc.coord, ref, "before crash")

	dc.nodes[0].Crash()
	for i := 5; i < 12; i++ {
		ingest(i, float64(i+1))
	}
	if s := dc.coord.Stats(); s.ReplicaDowns == 0 {
		t.Fatalf("writes to a crashed replica never evicted it (stats %+v)", s)
	}
	assertCachedMatches(t, cached, dc.coord, ref, "surviving replica")

	dc.restartNode(t, 0)
	waitRejoins(t, dc.coord, 1)
	if got := dc.nodes[0].LastLSN(); got != 12 {
		t.Fatalf("rejoined replica at LSN %d, want 12", got)
	}
	assertCachedMatches(t, cached, dc.coord, ref, "after rejoin")

	// Kill the peer: only the rejoined replica can answer for block 0,
	// so exact cached answers here mean no acknowledged-delta loss and
	// no stale cache entries surviving the ingest stream.
	dc.nodes[2].Crash()
	assertCachedMatches(t, cached, dc.coord, ref, "rejoined replica alone")

	ingest(12, 99)
	assertCachedMatches(t, cached, dc.coord, ref, "single-copy ingest")

	m := cached.Metrics().Flatten()
	if m["qcache.invalidations"] == 0 || m["qcache.fills"] == 0 {
		t.Fatalf("cache idle through the crash scenario: %v", m)
	}
}

// TestCachedGroupByNamesOutOfSchemaOrder asks a cached coordinator for
// group-bys that name their dimensions out of schema order. Every backend
// answers with its axes in schema order, so the cache keys a group-by by
// its names in that order: a child projected from a cached ancestor
// keeps the right axes, and GROUPBY time,item shares GROUPBY item,time's
// entry.
func TestCachedGroupByNamesOutOfSchemaOrder(t *testing.T) {
	ds, cube := test4D(t)
	cl := startCluster(t, ds, 2, 1)
	cached := qcache.Wrap(cl.coord, qcache.Config{})
	if _, err := cached.GroupBy("region", "time", "item"); err != nil {
		t.Fatal(err)
	}
	for _, dims := range [][]string{{"item"}, {"item", "time"}, {"time", "item"}, {"region", "item"}, {"time", "region", "item"}} {
		got, err := cached.GroupBy(dims...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cube.GroupBy(dims...)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, "cached GROUPBY "+strings.Join(dims, ","), got, want)
	}
	m := cached.Metrics()
	if got := m.Counter("qcache.ancestor_hits").Value(); got != 3 {
		t.Errorf("%d group-bys were projected from the cached ancestor, want 3 (item; item,time; item,region)", got)
	}
	if got := m.Counter("qcache.hits").Value(); got != 2 {
		t.Errorf("%d hits, want 2 (time,item and time,region,item)", got)
	}
}
