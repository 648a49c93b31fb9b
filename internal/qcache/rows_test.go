package qcache

import (
	"slices"
	"sync"
	"testing"

	"parcube"
	"parcube/internal/server"
)

// rowBackend is fakeBackend publishing row-aware ingest events
// (RowNotifier) and answering real QUERY statements: each one is run on
// a cube built from the backend's current data. A statement naming a
// bare dimension keeps fakeBackend's meaning (the group-by over it), so
// a test can cache an answer the statement parser does not understand.
type rowBackend struct {
	*fakeBackend
	rowHooks []func(int, []server.Row)
	// onQuery, when set, runs (unlocked) at the top of Query so a test
	// can stall a fill mid-flight.
	onQuery func()
}

func newRowBackend() *rowBackend { return &rowBackend{fakeBackend: newFakeBackend(2)} }

func (r *rowBackend) OnIngestRows(fn func(int, []server.Row)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rowHooks = append(r.rowHooks, fn)
}

func (r *rowBackend) Query(stmt string) (server.Result, error) {
	if r.onQuery != nil {
		r.onQuery()
	}
	if slices.Contains(r.names, stmt) {
		return r.fakeBackend.Query(stmt)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queryCalls++
	dims := make([]parcube.Dim, len(r.names))
	for i, n := range r.names {
		dims[i] = parcube.Dim{Name: n, Size: r.sizes[i]}
	}
	schema, err := parcube.NewSchema(dims...)
	if err != nil {
		return nil, err
	}
	ds := parcube.NewDataset(schema)
	coords := make([]int, len(r.sizes))
	for _, v := range r.data {
		if err := ds.Add(v, coords...); err != nil {
			return nil, err
		}
		advance(coords, r.sizes)
	}
	cube, _, err := parcube.Build(ds)
	if err != nil {
		return nil, err
	}
	return cube.Query(stmt)
}

// Delta applies the rows and publishes one event per touched block with
// that block's rows.
func (r *rowBackend) Delta(rows []server.Row, lsn uint64) (uint64, bool, error) {
	r.mu.Lock()
	perBlock := map[int][]server.Row{}
	for _, row := range rows {
		off := 0
		for i, c := range row.Coords {
			off = off*r.sizes[i] + c
		}
		r.data[off] += row.Value
		b := r.blockOf(row.Coords[0])
		perBlock[b] = append(perBlock[b], row)
	}
	r.lsn++
	applied := r.lsn
	hooks := slices.Clone(r.rowHooks)
	r.mu.Unlock()
	for b, rs := range perBlock {
		for _, fn := range hooks {
			fn(b, rs)
		}
	}
	return applied, true, nil
}

func deltaRow(t *testing.T, c *Cache, coords ...int) {
	t.Helper()
	if _, _, err := c.Delta([]server.Row{{Coords: coords, Value: 5}}, 0); err != nil {
		t.Fatal(err)
	}
}

// askQuery answers stmt through the cache, checks it against the
// backend's fresh answer, and reports whether the cache served it.
func askQuery(t *testing.T, c *Cache, r *rowBackend, stmt string) bool {
	t.Helper()
	hits := counterValue(c, "qcache.hits")
	got, err := c.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	hit := counterValue(c, "qcache.hits") > hits
	want, err := r.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, got, want)
	return hit
}

func TestRowEventsKeepQueriesOutsideTheirBox(t *testing.T) {
	r := newRowBackend()
	c := Wrap(r, Config{})
	const stmt = "GROUP BY branch WHERE item = 0 AND day BETWEEN 1 AND 1"
	askQuery(t, c, r, stmt)

	// Outside the box on item (same block), then on day alone: kept.
	deltaRow(t, c, 1, 2, 1)
	if !askQuery(t, c, r, stmt) {
		t.Fatal("a row outside the WHERE box dropped the entry")
	}
	deltaRow(t, c, 0, 2, 0)
	if !askQuery(t, c, r, stmt) {
		t.Fatal("a row outside the WHERE box (day) dropped the entry")
	}
	// One row inside the box drops it, and the refill is the new answer.
	deltaRow(t, c, 0, 1, 1)
	if askQuery(t, c, r, stmt) {
		t.Fatal("a row inside the WHERE box left the entry cached")
	}
	if !askQuery(t, c, r, stmt) {
		t.Fatal("the refilled entry was not cached")
	}
	// A grand total with a TOP clause over a filter, and a query with no
	// WHERE clause, whose box is the whole array.
	const top = "GROUP BY item WHERE branch = 2 TOP 2"
	const all = "GROUP BY day"
	askQuery(t, c, r, top)
	askQuery(t, c, r, all)
	deltaRow(t, c, 3, 0, 0)
	if !askQuery(t, c, r, top) {
		t.Fatal("a row off the TOP statement's slice dropped it")
	}
	if askQuery(t, c, r, all) {
		t.Fatal("a statement without WHERE survived a row")
	}
}

func TestRowEventsDropValueOnlyForItsCell(t *testing.T) {
	r := newRowBackend()
	c := Wrap(r, Config{})
	ask := func(dims []string, coords []int) bool {
		t.Helper()
		hits := counterValue(c, "qcache.hits")
		got, err := c.Value(dims, coords)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Value(dims, coords)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("VALUE %v %v = %v, want %v", dims, coords, got, want)
		}
		return counterValue(c, "qcache.hits") > hits
	}
	branch := []string{"branch"}
	itemDay := []string{"item", "day"}
	ask(branch, []int{2})
	ask(itemDay, []int{3, 1})

	deltaRow(t, c, 0, 1, 0) // another branch; block 0
	deltaRow(t, c, 3, 1, 0) // block 1, the item's block, another day
	if !ask(branch, []int{2}) || !ask(itemDay, []int{3, 1}) {
		t.Fatal("a row in another cell dropped a VALUE entry")
	}
	deltaRow(t, c, 1, 2, 1) // branch 2: that cell's fact
	if ask(branch, []int{2}) {
		t.Fatal("a fact of the VALUE's own cell left it cached")
	}
	if !ask(itemDay, []int{3, 1}) {
		t.Fatal("a row in another cell dropped a VALUE entry")
	}
	deltaRow(t, c, 3, 0, 1)
	if ask(itemDay, []int{3, 1}) {
		t.Fatal("a fact of the VALUE's own cell left it cached")
	}
}

func TestRowEventsDropGroupByAndTotalOnAnyRow(t *testing.T) {
	r := newRowBackend()
	c := Wrap(r, Config{})
	if _, err := c.GroupBy("branch"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Total(); err != nil {
		t.Fatal(err)
	}
	// An unparseable statement has no box: block-level invalidation.
	askQuery(t, c, r, "item")
	inv := counterValue(c, "qcache.invalidations")
	deltaRow(t, c, 0, 0, 0)
	if got := counterValue(c, "qcache.invalidations") - inv; got != 3 {
		t.Fatalf("a row dropped %d entries, want 3 (GROUPBY, TOTAL, unparsed QUERY)", got)
	}
	gb, tot, _, q := r.counts()
	if _, err := c.GroupBy("branch"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Total(); err != nil {
		t.Fatal(err)
	}
	askQuery(t, c, r, "item")
	if gb2, tot2, _, q2 := r.counts(); gb2 != gb+1 || tot2 != tot+1 || q2 != q+2 {
		t.Fatalf("backend calls after the row: groupby %d->%d total %d->%d query %d->%d",
			gb, gb2, tot, tot2, q, q2)
	}
}

func TestOutOfBoxEventStillRejectsRacingFill(t *testing.T) {
	r := newRowBackend()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	r.onQuery = func() {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	c := Wrap(r, Config{})
	const stmt = "GROUP BY branch WHERE item = 0"
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Query(stmt); err != nil {
			t.Errorf("stalled query: %v", err)
		}
	}()
	<-started
	deltaRow(t, c, 1, 0, 0) // outside the box, same block, mid-fill
	close(release)
	wg.Wait()
	if n := counterValue(c, "qcache.rejected_fills"); n != 1 {
		t.Fatalf("rejected_fills = %d, want 1", n)
	}
	if askQuery(t, c, r, stmt) {
		t.Fatal("a fill that raced an ingest event was cached")
	}
}

func TestValueOutOfSchemaOrderSharesItsCellEntry(t *testing.T) {
	r := newRowBackend()
	c := Wrap(r, Config{})
	// ask answers VALUE day,item <day>,3 and checks it against the
	// backend's schema-order answer for the same cell.
	ask := func(day int) bool {
		t.Helper()
		hits := counterValue(c, "qcache.hits")
		got, err := c.Value([]string{"day", "item"}, []int{day, 3})
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Value([]string{"item", "day"}, []int{3, day})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("VALUE day,item %d,3 = %v, want %v", day, got, want)
		}
		return counterValue(c, "qcache.hits") > hits
	}
	ask(1)
	hits := counterValue(c, "qcache.hits")
	if _, err := c.Value([]string{"item", "day"}, []int{3, 1}); err != nil {
		t.Fatal(err)
	}
	if counterValue(c, "qcache.hits") == hits {
		t.Fatal("VALUE item,day 3,1 missed the entry VALUE day,item 1,3 filled")
	}
	deltaRow(t, c, 3, 1, 0) // the item's block, another day
	if !ask(1) {
		t.Fatal("a row in another cell dropped an out-of-order VALUE entry")
	}
	deltaRow(t, c, 3, 0, 1)
	if ask(1) {
		t.Fatal("a fact of the VALUE's own cell left it cached")
	}
}
