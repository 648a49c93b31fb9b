package array

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"parcube/internal/nd"
)

// sortTop is the selection Top replaced: every cell, coordinates
// included, stably sorted by descending value, then cut to k.
func sortTop(d *Dense, k int) []Cell {
	shape := d.Shape()
	out := make([]Cell, 0, d.Size())
	coords := make([]int, shape.Rank())
	for off := 0; off < d.Size(); off++ {
		shape.Coords(off, coords)
		out = append(out, Cell{Coords: append([]int(nil), coords...), Value: d.Data()[off]})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Value > out[j].Value })
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// TestTopMatchesStableSort is a seeded differential: on NaN-free tables
// with many ties, ranks 0 to 4, Top returns exactly what a stable sort
// by descending value returns, for k = 1, k = Size, k past Size and
// every k in between on the small tables.
func TestTopMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 200; trial++ {
		rank := rng.Intn(5)
		sizes := make([]int, rank)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(5)
		}
		shape := nd.Shape(sizes)
		vals := make([]float64, shape.Size())
		distinct := 1 + rng.Intn(6) // few distinct values: many ties
		for i := range vals {
			vals[i] = float64(rng.Intn(distinct)-distinct/2) * 0.5
			if rng.Intn(10) == 0 {
				vals[i] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
		d := Wrap(shape, vals)
		ks := []int{1, d.Size(), d.Size() + 1 + rng.Intn(3)}
		if d.Size() <= 16 {
			for k := 2; k < d.Size(); k++ {
				ks = append(ks, k)
			}
		}
		for _, k := range ks {
			got, want := d.Top(k), sortTop(d, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shape %v values %v k=%d:\n got %v\nwant %v", shape, vals, k, got, want)
			}
		}
	}
}

func TestTopEdges(t *testing.T) {
	d := Wrap(nd.Shape{}, []float64{-3})
	if got := d.Top(2); len(got) != 1 || got[0].Coords != nil || got[0].Value != -3 {
		t.Fatalf("0-D Top(2) = %v, want the one cell", got)
	}
	for _, k := range []int{0, -1} {
		if got := d.Top(k); got == nil || len(got) != 0 {
			t.Fatalf("Top(%d) = %#v, want an empty slice", k, got)
		}
	}
	// NaN ranks below every number, -Inf included; NaNs tie by offset.
	n := math.NaN()
	v := Wrap(nd.MustShape(5), []float64{n, math.Inf(-1), 2, n, 2})
	var offs []int
	for _, c := range v.Top(5) {
		offs = append(offs, c.Coords[0])
	}
	if want := []int{2, 4, 1, 0, 3}; !reflect.DeepEqual(offs, want) {
		t.Fatalf("Top order %v, want %v", offs, want)
	}
}

// BenchmarkTop selects 10 of 65536 cells, the size of a large group-by
// answer.
func BenchmarkTop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = float64(rng.Intn(1000))
	}
	d := Wrap(nd.MustShape(256, 256), vals)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Top(10)
	}
}
