package core_test

import (
	"math/rand"
	"testing"

	"parcube/internal/array"
	"parcube/internal/core"
	"parcube/internal/nd"
	"parcube/internal/seq"
)

// TestSequentialUpdatesMatchesBuild holds the closed form to the
// sequential engine's own count over seeded random shapes, orderings and
// stored-cell counts, extent-1 dimensions, empty inputs and n = 1
// included.
func TestSequentialUpdatesMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	cases := []struct {
		shape nd.Shape
		nnz   int
	}{
		{nd.MustShape(7), 5},
		{nd.MustShape(1), 1},
		{nd.MustShape(5, 1, 4), 9},
		{nd.MustShape(3, 4, 2), 0},
		{nd.MustShape(1, 1, 1, 1), 1},
	}
	for len(cases) < 30 {
		n := 1 + rng.Intn(5)
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(6)
		}
		shape := nd.MustShape(sizes...)
		cases = append(cases, struct {
			shape nd.Shape
			nnz   int
		}{shape, rng.Intn(shape.Size() + 1)})
	}
	for i, c := range cases {
		input := distinctCells(t, rng, c.shape, c.nnz)
		ordering := core.Ordering(rng.Perm(c.shape.Rank()))
		res, err := seq.Build(input, seq.Options{Ordering: ordering, Sink: &seq.CountingSink{}})
		if err != nil {
			t.Fatal(err)
		}
		got := core.SequentialUpdates(ordering.Apply(c.shape), int64(input.NNZ()))
		if got != res.Stats.Updates {
			t.Errorf("case %d: shape %v ordering %v nnz %d: closed form %d, Build %d",
				i, c.shape, ordering, input.NNZ(), got, res.Stats.Updates)
		}
	}
}

// distinctCells returns a sparse array of shape holding nnz distinct
// cells chosen at random.
func distinctCells(t *testing.T, rng *rand.Rand, shape nd.Shape, nnz int) *array.Sparse {
	t.Helper()
	b, err := array.NewSparseBuilder(shape, nil)
	if err != nil {
		t.Fatal(err)
	}
	coords := make([]int, shape.Rank())
	for _, off := range rng.Perm(shape.Size())[:nnz] {
		if err := b.Add(shape.Coords(off, coords), float64(1+rng.Intn(9))); err != nil {
			t.Fatal(err)
		}
	}
	s := b.Build()
	if s.NNZ() != nnz {
		t.Fatalf("built %d cells, want %d", s.NNZ(), nnz)
	}
	return s
}
