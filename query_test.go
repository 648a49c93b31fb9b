package parcube

import (
	"strings"
	"testing"
	"testing/quick"
)

func queryCube(t *testing.T) *Cube {
	t.Helper()
	cube, _, err := Build(retailDataset(t, 70, 500))
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

func TestQueryGroupByOnly(t *testing.T) {
	cube := queryCube(t)
	got, err := cube.Query("GROUP BY item")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := cube.GroupBy("item")
	for i := 0; i < 8; i++ {
		if got.At(i) != want.At(i) {
			t.Fatalf("item %d: %v != %v", i, got.At(i), want.At(i))
		}
	}
	// Multiple dimensions, case-insensitive keywords.
	tbl, err := cube.Query("group by item, branch")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Dims()) != 2 {
		t.Fatalf("dims = %v", tbl.Dims())
	}
}

func TestQueryGrandTotal(t *testing.T) {
	cube := queryCube(t)
	got, err := cube.Query("")
	if err != nil {
		t.Fatal(err)
	}
	if got.At() != cube.Total() {
		t.Fatalf("empty query = %v, want %v", got.At(), cube.Total())
	}
}

func TestQueryEqualityFilter(t *testing.T) {
	cube := queryCube(t)
	got, err := cube.Query("GROUP BY item WHERE branch = 2")
	if err != nil {
		t.Fatal(err)
	}
	ib, _ := cube.GroupBy("item", "branch")
	for i := 0; i < 8; i++ {
		if got.At(i) != ib.At(i, 2) {
			t.Fatalf("item %d: %v != %v", i, got.At(i), ib.At(i, 2))
		}
	}
	// Equality filter alone: scalar.
	tot, err := cube.Query("WHERE branch = 2")
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := 0; i < 8; i++ {
		sum += ib.At(i, 2)
	}
	if tot.At() != sum {
		t.Fatalf("filtered total = %v, want %v", tot.At(), sum)
	}
}

func TestQueryBetweenFilter(t *testing.T) {
	cube := queryCube(t)
	// Ungrouped BETWEEN: aggregated away after dicing.
	got, err := cube.Query("GROUP BY item WHERE time BETWEEN 1 AND 2")
	if err != nil {
		t.Fatal(err)
	}
	it, _ := cube.GroupBy("item", "time")
	for i := 0; i < 8; i++ {
		want := it.At(i, 1) + it.At(i, 2)
		if got.At(i) != want {
			t.Fatalf("item %d: %v != %v", i, got.At(i), want)
		}
	}
	// Grouped BETWEEN: kept, coordinates re-based.
	tbl, err := cube.Query("GROUP BY time WHERE time BETWEEN 1 AND 3")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Shape()[0] != 3 {
		t.Fatalf("range-kept shape = %v", tbl.Shape())
	}
	byTime, _ := cube.GroupBy("time")
	if tbl.At(0) != byTime.At(1) || tbl.At(2) != byTime.At(3) {
		t.Fatal("re-based coordinates wrong")
	}
}

func TestQueryCombinedFilters(t *testing.T) {
	cube := queryCube(t)
	got, err := cube.Query("GROUP BY item WHERE branch = 1 AND time BETWEEN 0 AND 1")
	if err != nil {
		t.Fatal(err)
	}
	full, _ := cube.GroupBy("item", "branch", "time")
	for i := 0; i < 8; i++ {
		want := full.At(i, 1, 0) + full.At(i, 1, 1)
		if got.At(i) != want {
			t.Fatalf("item %d: %v != %v", i, got.At(i), want)
		}
	}
}

func TestQueryEqualityWithinRange(t *testing.T) {
	cube := queryCube(t)
	// BETWEEN and = on the same dimension: the equality wins within the
	// diced range.
	got, err := cube.Query("GROUP BY item WHERE time BETWEEN 1 AND 3 AND time = 2")
	if err != nil {
		t.Fatal(err)
	}
	it, _ := cube.GroupBy("item", "time")
	for i := 0; i < 8; i++ {
		if got.At(i) != it.At(i, 2) {
			t.Fatalf("item %d: %v != %v", i, got.At(i), it.At(i, 2))
		}
	}
}

func TestQueryTop(t *testing.T) {
	cube := queryCube(t)
	top, err := cube.QueryTop("GROUP BY branch TOP 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Value < top[1].Value {
		t.Fatalf("top = %+v", top)
	}
	byBranch, _ := cube.GroupBy("branch")
	if top[0].Value != byBranch.Top(1)[0].Value {
		t.Fatal("QueryTop disagrees with Table.Top")
	}
	// Query with a TOP clause still returns the full table.
	tbl, err := cube.Query("GROUP BY branch TOP 2")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Size() != 6 {
		t.Fatalf("table size = %d", tbl.Size())
	}
	if _, err := cube.QueryTop("GROUP BY branch"); err == nil {
		t.Fatal("QueryTop without TOP accepted")
	}
}

func TestQueryParseErrors(t *testing.T) {
	cube := queryCube(t)
	for _, q := range []string{
		"GROUP item",                                // missing BY
		"GROUP BY",                                  // missing dimension
		"GROUP BY item WHERE",                       // missing condition
		"GROUP BY item WHERE time",                  // missing operator
		"GROUP BY item WHERE time = x",              // bad number
		"GROUP BY item WHERE time BETWEEN 1",        // missing AND
		"GROUP BY item WHERE time BETWEEN 3 AND 1",  // empty range
		"GROUP BY item WHERE time = 1 AND time = 2", // duplicate filter
		"GROUP BY item TOP 0",                       // bad top
		"GROUP BY item TOP x",                       // bad top number
		"GROUP BY item EXTRA",                       // trailing token
		"GROUP BY bogus",                            // unknown dimension
		"GROUP BY item WHERE item = 1",              // grouped + equality
		"GROUP BY item WHERE time BETWEEN 0 AND 99", // out of range
	} {
		if _, err := cube.Query(q); err == nil {
			t.Fatalf("accepted %q", q)
		}
	}
}

// Property: arbitrary token soup never panics the parser; it either parses
// or returns an error.
func TestQuickQueryNeverPanics(t *testing.T) {
	cube := queryCube(t)
	words := []string{"GROUP", "BY", "WHERE", "AND", "BETWEEN", "TOP", "item",
		"branch", "time", "bogus", "=", ",", "1", "3", "-2", "x", ""}
	f := func(picks [8]uint8) bool {
		parts := make([]string, 0, 8)
		for _, p := range picks {
			parts = append(parts, words[int(p)%len(words)])
		}
		q := strings.Join(parts, " ")
		defer func() {
			if recover() != nil {
				t.Errorf("query %q panicked", q)
			}
		}()
		_, _ = cube.Query(q)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryBox(t *testing.T) {
	names, sizes := []string{"item", "branch", "time"}, []int{8, 6, 5}
	cases := []struct {
		stmt string
		want []Range
	}{
		{"GROUP BY item", []Range{{0, 8}, {0, 6}, {0, 5}}},
		{"WHERE branch = 2", []Range{{0, 8}, {2, 3}, {0, 5}}},
		{"GROUP BY item WHERE time BETWEEN 1 AND 3 AND branch = 0 TOP 4", []Range{{0, 8}, {0, 1}, {1, 4}}},
		{"WHERE item BETWEEN 2 AND 6 AND item = 4", []Range{{4, 5}, {0, 6}, {0, 5}}},
	}
	for _, tc := range cases {
		got, err := QueryBox(tc.stmt, names, sizes)
		if err != nil {
			t.Fatalf("%q: %v", tc.stmt, err)
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("%q: box %v, want %v", tc.stmt, got, tc.want)
			}
		}
	}
	for _, bad := range []string{"GROUP item", "WHERE colour = 1", "TOP 0"} {
		if _, err := QueryBox(bad, names, sizes); err == nil {
			t.Errorf("%q: box without error", bad)
		}
	}
}
