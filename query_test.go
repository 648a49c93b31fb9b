package parcube

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"parcube/internal/array"
	"parcube/internal/nd"
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

// signedCube builds a cube over rank dimensions a, b, c, ... with the
// given extents and facts signed, non-integer measures, so that folding
// the same cells in another order changes the bits of a Sum.
func signedCube(t *testing.T, sizes []int, facts int, seed int64, op Aggregator) *Cube {
	t.Helper()
	dims := make([]Dim, len(sizes))
	for i, n := range sizes {
		dims[i] = Dim{Name: string(rune('a' + i)), Size: n}
	}
	schema, err := NewSchema(dims...)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset(schema)
	rng := rand.New(rand.NewSource(seed))
	coords := make([]int, len(sizes))
	for i := 0; i < facts; i++ {
		for d, n := range sizes {
			coords[d] = rng.Intn(n)
		}
		if err := ds.Add(rng.NormFloat64()*1e6, coords...); err != nil {
			t.Fatal(err)
		}
	}
	cube, _, err := Build(ds, WithAggregator(op))
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

// TestQuerySameBitsEveryCall asks one statement that rolls up two
// BETWEEN-filtered, ungrouped dimensions 200 times: every answer must
// have the same bits. Rolling them up one at a time in map order gave
// two different Sums.
func TestQuerySameBitsEveryCall(t *testing.T) {
	cube := signedCube(t, []int{4, 8, 8, 3}, 3000, 5, Sum)
	const stmt = "GROUP BY a WHERE b BETWEEN 1 AND 6 AND c BETWEEN 0 AND 7"
	first, err := cube.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	for call := 1; call < 200; call++ {
		got, err := cube.Query(stmt)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got.Values() {
			if w := first.At(i); math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("call %d: cell %d = %v, first call %v", call, i, v, w)
			}
		}
	}
}

// queryPlan is one generated statement: its text, and per dimension
// whether it is grouped and the box it reads.
type queryPlan struct {
	text              string
	grouped, filtered []bool
	box               []Range
}

// randomPlan draws a statement over sizes: each dimension is grouped or
// not, and unfiltered, equality-filtered (ungrouped only), BETWEEN-
// filtered, or both on the same dimension. Grouped names are listed in
// a shuffled order.
func randomPlan(rng *rand.Rand, sizes []int) queryPlan {
	p := queryPlan{grouped: make([]bool, len(sizes)), filtered: make([]bool, len(sizes)), box: make([]Range, len(sizes))}
	var group, where []string
	for i, n := range sizes {
		name := string(rune('a' + i))
		p.grouped[i] = rng.Intn(2) == 0
		if p.grouped[i] {
			group = append(group, name)
		}
		p.box[i] = Range{Lo: 0, Hi: n}
		filter := rng.Intn(4)
		if p.grouped[i] && filter&1 == 1 {
			filter = 2 // an equality would drop a grouped axis
		}
		p.filtered[i] = filter != 0
		if filter&2 != 0 {
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo)
			where = append(where, fmt.Sprintf("%s BETWEEN %d AND %d", name, lo, hi))
			p.box[i] = Range{Lo: lo, Hi: hi + 1}
		}
		if filter&1 != 0 {
			v := p.box[i].Lo + rng.Intn(p.box[i].Hi-p.box[i].Lo)
			where = append(where, fmt.Sprintf("%s = %d", name, v))
			p.box[i] = Range{Lo: v, Hi: v + 1}
		}
	}
	rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
	rng.Shuffle(len(where), func(i, j int) { where[i], where[j] = where[j], where[i] })
	var b strings.Builder
	if len(group) > 0 {
		b.WriteString("GROUP BY " + strings.Join(group, ", "))
	}
	if len(where) > 0 {
		b.WriteString(" WHERE " + strings.Join(where, " AND "))
	}
	p.text = b.String()
	return p
}

// refAnswer is the statement's answer cell by cell, from the group-by
// over every dimension it groups or filters: every cell of that table
// inside the box, in row-major order, folded into its grouped
// coordinates (re-based to the box) from the identity, or copied when
// no ungrouped dimension spans more than one cell.
func refAnswer(t *testing.T, cube *Cube, p queryPlan) (shape []int, vals []float64, folds int) {
	t.Helper()
	read := readDims(cube, p)
	work, err := cube.GroupBy(read...)
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi []int
	var grouped []bool
	for i, name := range cube.Schema().Names() {
		if !slices.Contains(read, name) {
			continue
		}
		r := p.box[i]
		lo, hi, grouped = append(lo, r.Lo), append(hi, r.Hi), append(grouped, p.grouped[i])
		if p.grouped[i] {
			shape = append(shape, r.Hi-r.Lo)
		} else if r.Hi-r.Lo > 1 {
			folds++
		}
	}
	op := cube.op
	out := array.NewDense(nd.Shape(shape), op)
	oc := make([]int, 0, len(shape))
	nd.NewBlock(lo, hi).Iter(func(coords []int) {
		oc = oc[:0]
		for i, c := range coords {
			if grouped[i] {
				oc = append(oc, c-lo[i])
			}
		}
		o := out.Shape().Offset(oc)
		if folds > 0 {
			out.Data()[o] = op.Combine(out.Data()[o], work.At(coords...))
		} else {
			out.Data()[o] = work.At(coords...)
		}
	})
	return shape, out.Data(), folds
}

// readDims names, in schema order, the dimensions p groups or filters.
func readDims(cube *Cube, p queryPlan) []string {
	var read []string
	for i, name := range cube.Schema().Names() {
		if p.grouped[i] || p.filtered[i] {
			read = append(read, name)
		}
	}
	return read
}

// chainQuery is the statement evaluated as a chain of table operators,
// the way Query once did: dice every BETWEEN, slice every equality,
// then roll up the ungrouped BETWEEN dimensions in schema order.
func chainQuery(t *testing.T, cube *Cube, p queryPlan) *Table {
	t.Helper()
	names := cube.Schema().Names()
	read := readDims(cube, p)
	ranges := map[string]Range{}
	for i, name := range names {
		if slices.Contains(read, name) {
			ranges[name] = p.box[i]
		}
	}
	tbl, err := cube.GroupBy(read...)
	if err != nil {
		t.Fatal(err)
	}
	if tbl, err = tbl.Dice(ranges); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if r, ok := ranges[name]; ok && !p.grouped[i] {
			if r.Hi-r.Lo == 1 {
				tbl, err = tbl.Slice(name, 0)
			} else {
				tbl, err = tbl.Rollup(name)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return tbl
}

// TestQueryMatchesCellReference is the differential wall of one-pass
// statement evaluation: over ranks 1-5 and all four operators, random
// statements (equality and BETWEEN filters on grouped and ungrouped
// dimensions, both on the same one) answer with the reference's extents
// and bits. Where at most one dimension is folded, the answer also has
// the bits of the dice-slice-roll-up chain.
func TestQueryMatchesCellReference(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for rank := 1; rank <= 5; rank++ {
		sizes := make([]int, rank)
		for i := range sizes {
			sizes[i] = 2 + rng.Intn(3)
		}
		for _, op := range []Aggregator{Sum, Count, Max, Min} {
			cube := signedCube(t, sizes, 2*nd.Shape(sizes).Size(), int64(rank), op)
			for n := 0; n < 40; n++ {
				p := randomPlan(rng, sizes)
				got, err := cube.Query(p.text)
				if err != nil {
					t.Fatalf("%v %q: %v", op, p.text, err)
				}
				shape, want, folds := refAnswer(t, cube, p)
				if !slices.Equal(got.Shape(), shape) {
					t.Fatalf("%v %q: shape %v, want %v", op, p.text, got.Shape(), shape)
				}
				var chain []float64
				if folds <= 1 {
					chain = chainQuery(t, cube, p).Values()
				}
				for i, v := range got.Values() {
					if math.Float64bits(v) != math.Float64bits(want[i]) {
						t.Fatalf("%v %q: cell %d = %v, want %v", op, p.text, i, v, want[i])
					}
					if chain != nil && math.Float64bits(v) != math.Float64bits(chain[i]) {
						t.Fatalf("%v %q: cell %d = %v, chain %v", op, p.text, i, v, chain[i])
					}
				}
			}
		}
	}
}

// TestQueryErrorTexts pins the errors of statements that parse but do
// not fit the schema, as dicing and slicing the working table reported
// them.
func TestQueryErrorTexts(t *testing.T) {
	cube := queryCube(t)
	for stmt, want := range map[string]string{
		"GROUP BY bogus":                                            `parcube: unknown dimension "bogus"`,
		"GROUP BY item WHERE bogus = 1":                             `parcube: unknown dimension "bogus"`,
		"GROUP BY item, item":                                       `parcube: dimension "item" repeated`,
		"GROUP BY item WHERE time BETWEEN 0 AND 99":                 `parcube: range [0,100) invalid for "time" (extent 4)`,
		"GROUP BY item WHERE time = 4":                              `parcube: index 4 out of range for "time"`,
		"GROUP BY item WHERE time = -1":                             `parcube: index -1 out of range for "time"`,
		"WHERE time BETWEEN 1 AND 2 AND time = 3":                   `parcube: index 2 out of range for "time"`,
		"GROUP BY time WHERE time BETWEEN -1 AND 2":                 `parcube: range [-1,3) invalid for "time" (extent 4)`,
		"GROUP BY item WHERE branch BETWEEN 2 AND 6":                `parcube: range [2,7) invalid for "branch" (extent 6)`,
		"GROUP BY bogus WHERE time BETWEEN 0 AND 99":                `parcube: unknown dimension "bogus"`,
		"GROUP BY item WHERE branch = 9 AND time = 1":               `parcube: index 9 out of range for "branch"`,
		"GROUP BY item WHERE branch BETWEEN 0 AND 1 AND branch = 1": "",
	} {
		_, err := cube.Query(stmt)
		switch {
		case want == "" && err != nil:
			t.Errorf("%q: %v", stmt, err)
		case want != "" && (err == nil || err.Error() != want):
			t.Errorf("%q: error %v, want %s", stmt, err, want)
		}
		if _, boxErr := QueryBox(stmt, cube.Schema().Names(), cube.Schema().Sizes()); fmt.Sprint(boxErr) != fmt.Sprint(err) {
			t.Errorf("%q: QueryBox error %v, Query error %v", stmt, boxErr, err)
		}
	}
}
