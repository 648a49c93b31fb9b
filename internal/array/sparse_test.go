package array

import (
	"math/rand"
	"testing"
	"testing/quick"

	"parcube/internal/nd"
)

func TestSparseBuilderBasics(t *testing.T) {
	shape := nd.MustShape(5, 5)
	b, err := NewSparseBuilder(shape, nd.MustShape(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]int{1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]int{4, 4}, 7); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]int{1, 2}, 2); err != nil { // duplicate sums
		t.Fatal(err)
	}
	if err := b.Add([]int{5, 0}, 1); err == nil {
		t.Fatal("out-of-range add accepted")
	}
	s := b.Build()
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d", s.NNZ())
	}
	if got := s.At(1, 2); got != 5 {
		t.Fatalf("At(1,2) = %v", got)
	}
	if got := s.At(4, 4); got != 7 {
		t.Fatalf("At(4,4) = %v", got)
	}
	if got := s.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v", got)
	}
	if s.Bytes() != 24 {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
	// 5x5 with 2x2 chunks -> 3x3 = 9 chunks, boundary chunks smaller.
	if s.NumChunks() != 9 {
		t.Fatalf("NumChunks = %d", s.NumChunks())
	}
}

func TestSparseBuilderValidation(t *testing.T) {
	if _, err := NewSparseBuilder(nd.MustShape(4, 4), nd.MustShape(2)); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, err := NewSparseBuilder(nd.MustShape(4), nd.Shape{0}); err == nil {
		t.Fatal("zero chunk side accepted")
	}
	// Oversized chunk sides are clamped, not rejected.
	b, err := NewSparseBuilder(nd.MustShape(4), nd.MustShape(100))
	if err != nil {
		t.Fatal(err)
	}
	if b.Build().NumChunks() != 1 {
		t.Fatal("oversized chunk not clamped")
	}
}

func TestSparseDefaultChunks(t *testing.T) {
	b, err := NewSparseBuilder(nd.MustShape(40, 40), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := b.Build()
	if s.NumChunks() != 3*3 { // ceil(40/16) = 3 per axis
		t.Fatalf("NumChunks = %d", s.NumChunks())
	}
}

func TestSparseIterMatchesDense(t *testing.T) {
	shape := nd.MustShape(7, 6, 5)
	rng := rand.New(rand.NewSource(1))
	b, _ := NewSparseBuilder(shape, nd.MustShape(3, 4, 2))
	ref := NewDense(shape, 0)
	for i := 0; i < 60; i++ {
		c := []int{rng.Intn(7), rng.Intn(6), rng.Intn(5)}
		v := float64(rng.Intn(9) + 1)
		if err := b.Add(c, v); err != nil {
			t.Fatal(err)
		}
		ref.Set(ref.At(c...)+v, c...)
	}
	s := b.Build()
	if !s.ToDense().Equal(ref) {
		t.Fatal("sparse/dense mismatch")
	}
	// Iter visits each stored cell exactly once.
	count := 0
	s.Iter(func(coords []int, v float64) {
		count++
		if ref.At(coords...) != v {
			t.Fatalf("Iter value mismatch at %v: %v != %v", coords, v, ref.At(coords...))
		}
	})
	if count != s.NNZ() {
		t.Fatalf("Iter visited %d, NNZ %d", count, s.NNZ())
	}
}

func TestSparseAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b, _ := NewSparseBuilder(nd.MustShape(2, 2), nil)
	b.Build().At(2, 0)
}

func TestSubBlock(t *testing.T) {
	shape := nd.MustShape(6, 6)
	b, _ := NewSparseBuilder(shape, nd.MustShape(2, 2))
	for i := 0; i < 6; i++ {
		if err := b.Add([]int{i, i}, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	s := b.Build()
	blk := nd.NewBlock([]int{2, 2}, []int{5, 6})
	sub, err := s.SubBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Shape().Equal(nd.MustShape(3, 4)) {
		t.Fatalf("sub shape = %v", sub.Shape())
	}
	if sub.NNZ() != 3 { // diagonal cells (2,2),(3,3),(4,4)
		t.Fatalf("sub NNZ = %d", sub.NNZ())
	}
	if got := sub.At(0, 0); got != 3 { // global (2,2) has value 3
		t.Fatalf("sub At(0,0) = %v", got)
	}
	if got := sub.At(2, 2); got != 5 {
		t.Fatalf("sub At(2,2) = %v", got)
	}
}

// Property: SubBlocks over a partition cover every stored entry once.
func TestQuickSubBlockPartition(t *testing.T) {
	f := func(seed int64, p1, p2 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := nd.MustShape(8, 9)
		parts := []int{int(p1)%4 + 1, int(p2)%3 + 1}
		b, _ := NewSparseBuilder(shape, nd.MustShape(3, 3))
		for i := 0; i < 30; i++ {
			_ = b.Add([]int{rng.Intn(8), rng.Intn(9)}, 1)
		}
		s := b.Build()
		covered := 0
		for g0 := 0; g0 < parts[0]; g0++ {
			for g1 := 0; g1 < parts[1]; g1++ {
				blk, err := nd.BlockOf(shape, parts, []int{g0, g1})
				if err != nil {
					return false
				}
				sub, err := s.SubBlock(blk)
				if err != nil {
					return false
				}
				covered += sub.NNZ()
			}
		}
		return covered == s.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
