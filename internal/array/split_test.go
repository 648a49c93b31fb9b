package array

import (
	"math/rand"
	"reflect"
	"testing"

	"parcube/internal/nd"
)

// cell is one (coords, value) pair in iteration order.
type cell struct {
	coords []int
	v      float64
}

func cellsOf(s *Sparse) []cell {
	var out []cell
	s.Iter(func(coords []int, v float64) {
		out = append(out, cell{append([]int(nil), coords...), v})
	})
	return out
}

// filteredRef builds the reference for block b the slow way: every
// stored cell of s inside b, at block-relative coords, added to a
// SparseBuilder with the default chunk sides.
func filteredRef(t *testing.T, s *Sparse, b nd.Block) *Sparse {
	t.Helper()
	ref, err := NewSparseBuilder(b.Shape(), nil)
	if err != nil {
		t.Fatal(err)
	}
	local := make([]int, b.Rank())
	s.Iter(func(coords []int, v float64) {
		if !b.Contains(coords) {
			return
		}
		for i := range local {
			local[i] = coords[i] - b.Lo[i]
		}
		if err := ref.Add(local, v); err != nil {
			t.Fatal(err)
		}
	})
	return ref.Build()
}

func randomChunked(t *testing.T, shape, chunkSides nd.Shape, nnz int, seed int64) *Sparse {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := NewSparseBuilder(shape, chunkSides)
	if err != nil {
		t.Fatal(err)
	}
	coords := make([]int, shape.Rank())
	for i := 0; i < nnz; i++ {
		for d := range coords {
			coords[d] = rng.Intn(shape[d])
		}
		if err := b.Add(coords, float64(rng.Intn(9)+1)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestSplitIteratesLikeBuilder covers the cases a processor grid never
// produces: source chunks smaller than and straddling the blocks' chunks
// (so one block chunk gathers several sorted runs), blocks that leave
// cells uncovered, and a block reaching past the array.
func TestSplitIteratesLikeBuilder(t *testing.T) {
	for _, tc := range []struct {
		name       string
		shape      nd.Shape
		chunkSides nd.Shape
		blocks     []nd.Block
	}{
		{"small source chunks", nd.MustShape(40, 36), nd.MustShape(5, 7), []nd.Block{
			nd.NewBlock([]int{0, 0}, []int{20, 36}),
			nd.NewBlock([]int{20, 0}, []int{40, 36}),
		}},
		{"straddling source chunks", nd.MustShape(30, 30, 6), nd.MustShape(7, 9, 4), []nd.Block{
			nd.NewBlock([]int{3, 0, 0}, []int{21, 30, 6}),
			nd.NewBlock([]int{21, 5, 1}, []int{30, 25, 5}),
		}},
		{"partial cover", nd.MustShape(33, 33), nil, []nd.Block{
			nd.NewBlock([]int{16, 16}, []int{32, 32}),
			nd.NewBlock([]int{1, 2}, []int{9, 31}),
		}},
		{"past the edge", nd.MustShape(20, 20), nil, []nd.Block{
			nd.NewBlock([]int{16, 0}, []int{40, 16}),
		}},
	} {
		s := randomChunked(t, tc.shape, tc.chunkSides, tc.shape.Size()/3, 11)
		parts, err := s.Split(tc.blocks)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, b := range tc.blocks {
			ref := filteredRef(t, s, b)
			if !parts[i].Shape().Equal(ref.Shape()) || parts[i].NNZ() != ref.NNZ() || parts[i].NumChunks() != ref.NumChunks() {
				t.Fatalf("%s block %v: shape %v nnz %d chunks %d, want %v %d %d", tc.name, b,
					parts[i].Shape(), parts[i].NNZ(), parts[i].NumChunks(), ref.Shape(), ref.NNZ(), ref.NumChunks())
			}
			if got, want := cellsOf(parts[i]), cellsOf(ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s block %v iterates differently from the builder reference", tc.name, b)
			}
		}
	}
}

// TestSubBlockSharesAlignedChunks: a block on the source's chunk grid
// takes its chunks by reference, not by copy.
func TestSubBlockSharesAlignedChunks(t *testing.T) {
	s := randomChunked(t, nd.MustShape(48, 40), nil, 500, 5)
	src := make(map[*Entry]bool)
	_ = s.IterChunks(func(_ nd.Block, entries []Entry) error {
		if len(entries) > 0 {
			src[&entries[0]] = true
		}
		return nil
	})
	sub, err := s.SubBlock(nd.NewBlock([]int{16, 16}, []int{48, 40}))
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	_ = sub.IterChunks(func(_ nd.Block, entries []Entry) error {
		if len(entries) > 0 {
			if !src[&entries[0]] {
				t.Errorf("chunk of %d entries was copied", len(entries))
			}
			shared++
		}
		return nil
	})
	if shared == 0 {
		t.Fatal("no chunk to share")
	}
}

func TestSplitValidation(t *testing.T) {
	s := randomChunked(t, nd.MustShape(4, 4), nil, 5, 1)
	if _, err := s.Split([]nd.Block{nd.NewBlock([]int{0}, []int{4})}); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, err := s.Split([]nd.Block{nd.NewBlock([]int{1, 1}, []int{1, 3})}); err == nil {
		t.Fatal("empty block accepted")
	}
}
