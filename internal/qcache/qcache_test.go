package qcache

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/server"
)

// fakeBackend is a deterministic in-memory cube over a full-shape dense
// array, partitioned into slab blocks along dimension 0. It implements
// every optional refinement the cache can exploit (Planner,
// IngestNotifier, ValueBackend, DeltaBackend) and counts backend calls
// so tests can assert what the cache absorbed.
type fakeBackend struct {
	names []string
	sizes []int
	nblk  int

	// onGroupBy, when set, runs (unlocked) at the top of GroupBy so a
	// test can stall a fill mid-flight.
	onGroupBy func()

	mu           sync.Mutex
	data         []float64
	groupByCalls int
	totalCalls   int
	valueCalls   int
	queryCalls   int
	hooks        []func(int)
	lsn          uint64
}

func newFakeBackend(nblk int) *fakeBackend {
	f := &fakeBackend{
		names: []string{"item", "branch", "day"},
		sizes: []int{4, 3, 2},
		nblk:  nblk,
		data:  make([]float64, 4*3*2),
	}
	for i := range f.data {
		f.data[i] = float64(i%7 + 1)
	}
	return f
}

// blockOf maps a dimension-0 coordinate to its owning slab block.
func (f *fakeBackend) blockOf(c0 int) int { return c0 * f.nblk / f.sizes[0] }

func (f *fakeBackend) SchemaDims() ([]string, []int) {
	return append([]string(nil), f.names...), append([]int(nil), f.sizes...)
}

func (f *fakeBackend) Total() (float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.totalCalls++
	var sum float64
	for _, v := range f.data {
		sum += v
	}
	return sum, nil
}

// fold aggregates the full array down to the named dimensions with an
// independent naive loop (not the cache's projection), so tests have a
// non-circular oracle. Like every real backend it answers with its axes
// in schema order, whatever order dims names them in.
func (f *fakeBackend) fold(dims []string) (*server.Table, error) {
	for i, d := range dims {
		if !slices.Contains(f.names, d) {
			return nil, fmt.Errorf("unknown dimension %q", d)
		}
		if slices.Contains(dims[:i], d) {
			return nil, fmt.Errorf("dimension %q repeated", d)
		}
	}
	var axes, shape []int
	for j, n := range f.names {
		if slices.Contains(dims, n) {
			axes = append(axes, j)
			shape = append(shape, f.sizes[j])
		}
	}
	out := array.NewDense(shape, agg.Sum)
	pc := make([]int, len(f.sizes))
	for off := range f.data {
		coff := 0
		for i, a := range axes {
			coff = coff*shape[i] + pc[a]
		}
		out.Data()[coff] += f.data[off]
		advance(pc, f.sizes)
	}
	return server.NewTable(out), nil
}

// advance steps row-major coordinates one cell forward.
func advance(coords, shape []int) {
	for i := len(coords) - 1; i >= 0; i-- {
		coords[i]++
		if coords[i] < shape[i] {
			return
		}
		coords[i] = 0
	}
}

func (f *fakeBackend) GroupBy(dims ...string) (server.Result, error) {
	if f.onGroupBy != nil {
		f.onGroupBy()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.groupByCalls++
	return f.fold(dims)
}

func (f *fakeBackend) Query(stmt string) (server.Result, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.queryCalls++
	return f.fold([]string{stmt})
}

func (f *fakeBackend) Value(dims []string, coords []int) (float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.valueCalls++
	tbl, err := f.fold(dims)
	if err != nil {
		return 0, err
	}
	return server.Lookup(tbl, coords)
}

func (f *fakeBackend) NumBlocks() int { return f.nblk }
func (f *fakeBackend) Op() agg.Op     { return agg.Sum }

func (f *fakeBackend) BlocksForValue(dims []string, coords []int) ([]int, error) {
	for i, d := range dims {
		if d == f.names[0] {
			return []int{f.blockOf(coords[i])}, nil
		}
	}
	all := make([]int, f.nblk)
	for i := range all {
		all[i] = i
	}
	return all, nil
}

func (f *fakeBackend) OnIngest(fn func(block int)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hooks = append(f.hooks, fn)
}

func (f *fakeBackend) Delta(rows []server.Row, lsn uint64) (uint64, bool, error) {
	f.mu.Lock()
	touched := map[int]bool{}
	for _, r := range rows {
		off := 0
		for i, c := range r.Coords {
			off = off*f.sizes[i] + c
		}
		f.data[off] += r.Value
		touched[r.Coords[0]*f.nblk/f.sizes[0]] = true
	}
	f.lsn++
	applied := f.lsn
	hooks := make([]func(int), len(f.hooks))
	copy(hooks, f.hooks)
	f.mu.Unlock()
	for b := range touched {
		for _, fn := range hooks {
			fn(b)
		}
	}
	return applied, true, nil
}

func (f *fakeBackend) counts() (groupBy, total, value, query int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.groupByCalls, f.totalCalls, f.valueCalls, f.queryCalls
}

// sameTable fails the test unless the two results agree cell for cell.
func sameTable(t *testing.T, got, want server.Result) {
	t.Helper()
	gs, ws := got.Shape(), want.Shape()
	if len(gs) != len(ws) {
		t.Fatalf("shape rank: got %v want %v", gs, ws)
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("shape: got %v want %v", gs, ws)
		}
	}
	coords := make([]int, len(gs))
	for off := 0; off < want.Size(); off++ {
		if g, w := got.At(coords...), want.At(coords...); g != w {
			t.Fatalf("cell %v: got %v want %v", coords, g, w)
		}
		advance(coords, ws)
	}
}

func counterValue(c *Cache, name string) int64 {
	return c.Metrics().Counter(name).Value()
}

func TestGroupByCachesAndStaysExact(t *testing.T) {
	f := newFakeBackend(2)
	c := Wrap(f, Config{})

	want, err := f.fold([]string{"item", "branch"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.GroupBy("item", "branch")
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, got, want)

	gb0, _, _, _ := f.counts()
	again, err := c.GroupBy("item", "branch")
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, again, want)
	if gb1, _, _, _ := f.counts(); gb1 != gb0 {
		t.Fatalf("cached group-by hit the backend: %d calls, was %d", gb1, gb0)
	}
	if h := counterValue(c, "qcache.hits"); h != 1 {
		t.Fatalf("hits = %d, want 1", h)
	}
	if m := counterValue(c, "qcache.misses"); m != 1 {
		t.Fatalf("misses = %d, want 1", m)
	}
}

func TestTotalAndValueCache(t *testing.T) {
	f := newFakeBackend(2)
	c := Wrap(f, Config{})

	wantTotal, _ := f.Total()
	for i := 0; i < 3; i++ {
		got, err := c.Total()
		if err != nil {
			t.Fatal(err)
		}
		if got != wantTotal {
			t.Fatalf("total = %v, want %v", got, wantTotal)
		}
	}
	if _, tc, _, _ := f.counts(); tc != 2 { // one oracle call + one fill
		t.Fatalf("backend Total called %d times, want 2", tc)
	}

	wantVal, _ := f.Value([]string{"item"}, []int{2})
	for i := 0; i < 3; i++ {
		got, err := c.Value([]string{"item"}, []int{2})
		if err != nil {
			t.Fatal(err)
		}
		if got != wantVal {
			t.Fatalf("value = %v, want %v", got, wantVal)
		}
	}
	if _, _, vc, _ := f.counts(); vc != 2 { // one oracle call + one fill
		t.Fatalf("backend Value called %d times, want 2", vc)
	}
}

func TestAncestorProjection(t *testing.T) {
	f := newFakeBackend(2)
	c := Wrap(f, Config{})

	if _, err := c.GroupBy("item", "branch"); err != nil {
		t.Fatal(err)
	}
	gb0, _, _, _ := f.counts()

	want, err := f.fold([]string{"branch"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.GroupBy("branch")
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, got, want)
	if gb1, _, _, _ := f.counts(); gb1 != gb0 {
		t.Fatalf("projection hit the backend: %d calls, was %d", gb1, gb0)
	}
	if a := counterValue(c, "qcache.ancestor_hits"); a != 1 {
		t.Fatalf("ancestor_hits = %d, want 1", a)
	}

	// The projected child is itself cached now.
	if _, err := c.GroupBy("branch"); err != nil {
		t.Fatal(err)
	}
	if h := counterValue(c, "qcache.hits"); h != 1 {
		t.Fatalf("hits = %d, want 1", h)
	}
}

func TestInvalidationIsBlockExact(t *testing.T) {
	f := newFakeBackend(2)
	c := Wrap(f, Config{})

	// item coordinate 0 lives in block 0; coordinate 3 in block 1.
	if b := f.blockOf(0); b != 0 {
		t.Fatalf("blockOf(0) = %d", b)
	}
	if b := f.blockOf(3); b != 1 {
		t.Fatalf("blockOf(3) = %d", b)
	}
	v0, err := c.Value([]string{"item"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Value([]string{"item"}, []int{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GroupBy("branch"); err != nil {
		t.Fatal(err)
	}

	// Ingest into block 1 only (item coordinate 3).
	if _, _, err := c.Delta([]server.Row{{Coords: []int{3, 1, 0}, Value: 10}}, 0); err != nil {
		t.Fatal(err)
	}
	if inv := counterValue(c, "qcache.invalidations"); inv != 2 {
		// The block-1 value entry and the all-blocks group-by entry.
		t.Fatalf("invalidations = %d, want 2", inv)
	}

	// Block-0 value survives: answered without a backend call.
	_, _, vc0, _ := f.counts()
	got, err := c.Value([]string{"item"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got != v0 {
		t.Fatalf("surviving value = %v, want %v", got, v0)
	}
	if _, _, vc1, _ := f.counts(); vc1 != vc0 {
		t.Fatalf("surviving entry hit the backend")
	}

	// Block-1 value refills with the post-delta answer.
	want, _ := f.Value([]string{"item"}, []int{3})
	got, err = c.Value([]string{"item"}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("refilled value = %v, want %v", got, want)
	}
}

func TestEpochGuardRejectsStaleFill(t *testing.T) {
	f := newFakeBackend(2)
	started := make(chan struct{})
	release := make(chan struct{})
	f.onGroupBy = func() {
		close(started)
		<-release
	}
	c := Wrap(f, Config{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.GroupBy("item"); err != nil {
			t.Errorf("stalled group-by: %v", err)
		}
	}()
	<-started
	c.InvalidateBlock(0) // ingest lands while the fill is reading
	close(release)
	wg.Wait()

	if r := counterValue(c, "qcache.rejected_fills"); r != 1 {
		t.Fatalf("rejected_fills = %d, want 1", r)
	}
	// The stale answer was not cached: the next ask goes to the backend.
	f.onGroupBy = nil
	gb0, _, _, _ := f.counts()
	if _, err := c.GroupBy("item"); err != nil {
		t.Fatal(err)
	}
	if gb1, _, _, _ := f.counts(); gb1 != gb0+1 {
		t.Fatalf("stale fill was served from cache")
	}
}

func TestLRUEvictionBounded(t *testing.T) {
	f := newFakeBackend(2)
	c := Wrap(f, Config{MaxEntries: 2})

	for _, d := range []string{"item", "branch", "day"} {
		if _, err := c.Query(d); err != nil {
			t.Fatal(err)
		}
	}
	if ev := counterValue(c, "qcache.evictions"); ev < 1 {
		t.Fatalf("evictions = %d, want >= 1", ev)
	}
	if n := c.Metrics().Gauge("qcache.entries").Value(); n > 2 {
		t.Fatalf("entries gauge = %d, want <= 2", n)
	}
	// The oldest entry ("item") was evicted; the newest still hits.
	_, _, _, qc0 := f.counts()
	if _, err := c.Query("day"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, qc1 := f.counts(); qc1 != qc0 {
		t.Fatalf("newest entry was evicted")
	}
	if _, err := c.Query("item"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, qc2 := f.counts(); qc2 != qc0+1 {
		t.Fatalf("oldest entry was not evicted")
	}
}

func TestPinnedViewsSurviveEviction(t *testing.T) {
	f := newFakeBackend(2)
	c := Wrap(f, Config{MaxEntries: 1, PinCells: 12})
	pinned := c.PinnedGroupBys()
	if len(pinned) == 0 {
		t.Fatal("no views pinned under a 12-cell budget")
	}
	if err := c.Prefetch(); err != nil {
		t.Fatal(err)
	}
	gb0, _, _, _ := f.counts()

	// Flood the (1-entry) LRU side of the cache.
	for _, d := range []string{"item", "branch", "day"} {
		if _, err := c.Query(d); err != nil {
			t.Fatal(err)
		}
	}

	// Every pinned group-by still answers from cache.
	for _, dims := range pinned {
		want, err := f.fold(dims)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.GroupBy(dims...)
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, got, want)
	}
	if gb1, _, _, _ := f.counts(); gb1 != gb0 {
		t.Fatalf("pinned group-by went to the backend after eviction pressure")
	}

	// Pinned entries are still invalidated by ingest, then lazily refill.
	if _, _, err := c.Delta([]server.Row{{Coords: []int{0, 0, 0}, Value: 5}}, 0); err != nil {
		t.Fatal(err)
	}
	for _, dims := range pinned {
		want, err := f.fold(dims)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.GroupBy(dims...)
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, got, want)
	}
}

// noNotify strips the ingest feed (and planner) from a backend, leaving
// only the base query surface plus Delta.
type noNotify struct{ f *fakeBackend }

func (n *noNotify) SchemaDims() ([]string, []int)              { return n.f.SchemaDims() }
func (n *noNotify) Total() (float64, error)                    { return n.f.Total() }
func (n *noNotify) GroupBy(d ...string) (server.Result, error) { return n.f.GroupBy(d...) }
func (n *noNotify) Query(s string) (server.Result, error)      { return n.f.Query(s) }
func (n *noNotify) Delta(r []server.Row, l uint64) (uint64, bool, error) {
	return n.f.Delta(r, l)
}

func TestDeltaWithoutNotifierInvalidatesAll(t *testing.T) {
	f := newFakeBackend(2)
	c := Wrap(&noNotify{f}, Config{})

	if _, err := c.Total(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Delta([]server.Row{{Coords: []int{0, 0, 0}, Value: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	want, _ := f.Total()
	_, tc0, _, _ := f.counts()
	got, err := c.Total()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("total after delta = %v, want %v", got, want)
	}
	if _, tc1, _, _ := f.counts(); tc1 != tc0+1 {
		t.Fatalf("stale total served after notifier-less delta")
	}
}

func TestValueFallsBackToGroupBy(t *testing.T) {
	f := newFakeBackend(2)
	c := Wrap(&noNotify{f}, Config{})

	want, _ := f.Value([]string{"branch"}, []int{1})
	got, err := c.Value([]string{"branch"}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("fallback value = %v, want %v", got, want)
	}
	if _, _, vc, _ := f.counts(); vc != 1 { // only the oracle call above
		t.Fatalf("fallback used the backend Value path %d times", vc)
	}
	if _, err := c.Value([]string{"branch"}, []int{9}); err == nil {
		t.Fatal("out-of-range fallback value did not error")
	}
}

func TestStatsFieldsIncludeCacheSeries(t *testing.T) {
	f := newFakeBackend(2)
	c := Wrap(f, Config{})
	if _, err := c.Total(); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, kv := range c.StatsFields() {
		for _, want := range []string{"qcache.hits=", "qcache.misses=", "qcache.fills=",
			"qcache.invalidations=", "qcache.entries=", "qcache.cells="} {
			if len(kv) >= len(want) && kv[:len(want)] == want {
				found[want] = true
			}
		}
	}
	for _, want := range []string{"qcache.hits=", "qcache.misses=", "qcache.fills=",
		"qcache.invalidations=", "qcache.entries=", "qcache.cells="} {
		if !found[want] {
			t.Fatalf("STATS missing %q in %v", want, c.StatsFields())
		}
	}
}

// TestGroupByNamesShareOneEntry checks that a group-by is keyed by its
// names in schema order: GROUPBY branch,item hits GROUPBY item,branch's
// entry, without allocating, and gets the same schema-ordered table.
func TestGroupByNamesShareOneEntry(t *testing.T) {
	f := newFakeBackend(2)
	c := Wrap(f, Config{})
	first, err := c.GroupBy("item", "branch")
	if err != nil {
		t.Fatal(err)
	}
	swapped := []string{"branch", "item"}
	again, err := c.GroupBy(swapped...)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("GROUPBY branch,item did not share GROUPBY item,branch's entry")
	}
	if gb, _, _, _ := f.counts(); gb != 1 {
		t.Fatalf("backend asked %d times, want 1", gb)
	}
	if n := testing.AllocsPerRun(100, func() { c.GroupBy(swapped...) }); n != 0 {
		t.Fatalf("an out-of-order hit allocated %v times", n)
	}
}
