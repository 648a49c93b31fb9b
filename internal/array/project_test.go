package array

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"parcube/internal/agg"
	"parcube/internal/nd"
)

func randSparse(t *testing.T, shape nd.Shape, nnz int, seed int64) *Sparse {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := NewSparseBuilder(shape, nil)
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

func TestProjectSparseMatchesChainedAggregates(t *testing.T) {
	shape := nd.MustShape(6, 5, 4)
	sp := randSparse(t, shape, 40, 1)
	dn := sp.ToDense()
	// Keep axis 1 only: collapse axes 0 and 2.
	got, updates := ProjectSparse(sp, []int{1}, agg.Sum, agg.FoldInput)
	want := dn.AggregateAlong(2, agg.Sum).AggregateAlong(0, agg.Sum)
	if !got.Equal(want) {
		t.Fatalf("ProjectSparse = %v, want %v", got.Data(), want.Data())
	}
	if updates != int64(sp.NNZ()) {
		t.Fatalf("updates = %d", updates)
	}
	// Keep everything: identical to densify.
	full, _ := ProjectSparse(sp, []int{0, 1, 2}, agg.Sum, agg.FoldInput)
	if !full.Equal(dn) {
		t.Fatal("full projection differs from densify")
	}
	// Keep nothing: grand total.
	total, _ := ProjectSparse(sp, nil, agg.Sum, agg.FoldInput)
	sum := 0.0
	for _, v := range dn.Data() {
		sum += v
	}
	if total.Scalar() != sum {
		t.Fatalf("grand total = %v, want %v", total.Scalar(), sum)
	}
}

func TestProjectSparseCount(t *testing.T) {
	sp := randSparse(t, nd.MustShape(5, 5), 12, 2)
	got, _ := ProjectSparse(sp, nil, agg.Count, agg.FoldInput)
	if got.Scalar() != float64(sp.NNZ()) {
		t.Fatalf("count = %v, nnz = %d", got.Scalar(), sp.NNZ())
	}
}

func TestProjectSparsePanics(t *testing.T) {
	sp := randSparse(t, nd.MustShape(4, 4), 4, 3)
	for _, axes := range [][]int{{1, 0}, {5}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for axes %v", axes)
				}
			}()
			ProjectSparse(sp, axes, agg.Sum, agg.FoldInput)
		}()
	}
}

func TestProjectDenseMatchesChainedAggregates(t *testing.T) {
	shape := nd.MustShape(4, 3, 5)
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, shape.Size())
	for i := range vals {
		vals[i] = float64(rng.Intn(10))
	}
	d, _ := FromValues(shape, vals)
	for _, tc := range []struct {
		keep  []int
		build func() *Dense
	}{
		{[]int{0}, func() *Dense { return d.AggregateAlong(2, agg.Sum).AggregateAlong(1, agg.Sum) }},
		{[]int{2}, func() *Dense { return d.AggregateAlong(1, agg.Sum).AggregateAlong(0, agg.Sum) }},
		{[]int{0, 2}, func() *Dense { return d.AggregateAlong(1, agg.Sum) }},
		{[]int{0, 1, 2}, func() *Dense { return d.Clone() }},
		{nil, func() *Dense {
			out := d.AggregateAlong(2, agg.Sum).AggregateAlong(1, agg.Sum).AggregateAlong(0, agg.Sum)
			return out
		}},
	} {
		got, updates := ProjectDense(d, nd.FullBlock(shape), tc.keep, agg.Sum)
		if updates != int64(shape.Size()) {
			t.Fatalf("keep %v: updates = %d", tc.keep, updates)
		}
		if want := tc.build(); !got.Equal(want) {
			t.Fatalf("keep %v: %v != %v", tc.keep, got.Data(), want.Data())
		}
	}
}

func TestProjectDenseScalarSource(t *testing.T) {
	s := NewDense(nd.Shape{}, agg.Sum)
	s.Data()[0] = 5
	got, updates := ProjectDense(s, nd.FullBlock(nd.Shape{}), nil, agg.Sum)
	if got.Scalar() != 5 || updates != 1 {
		t.Fatalf("scalar projection = %v (%d updates)", got.Scalar(), updates)
	}
}

func TestProjectDensePanics(t *testing.T) {
	d := NewDense(nd.MustShape(2, 2), agg.Sum)
	for _, axes := range [][]int{{1, 0}, {7}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for %v", axes)
				}
			}()
			ProjectDense(d, nd.FullBlock(d.Shape()), axes, agg.Sum)
		}()
	}
}

// refProjectBox is the contract of ProjectDense over a box, one cell at
// a time: the box's cells in row-major order, each folded into its
// output cell from the identity, or copied when no dropped axis spans
// more than one cell of the box.
func refProjectBox(src *Dense, box nd.Block, keep []int, op agg.Op) *Dense {
	outShape := make(nd.Shape, len(keep))
	folds := false
	for i, k := 0, 0; i < src.Rank(); i++ {
		if k < len(keep) && keep[k] == i {
			outShape[k] = box.Hi[i] - box.Lo[i]
			k++
		} else if box.Hi[i]-box.Lo[i] > 1 {
			folds = true
		}
	}
	out := NewDense(outShape, op)
	oc := make([]int, len(keep))
	box.Iter(func(coords []int) {
		for k, a := range keep {
			oc[k] = coords[a] - box.Lo[a]
		}
		o := outShape.Offset(oc)
		if folds {
			out.data[o] = op.Combine(out.data[o], src.At(coords...))
		} else {
			out.data[o] = src.At(coords...)
		}
	})
	return out
}

// TestProjectDenseBoxMatchesReference folds random boxes of random
// arrays (ranks 1-4, signed non-integer values, so a change of order
// shows in the bits) onto random kept axes under every operator, and
// compares each cell's bits with the per-cell reference. Where exactly
// one axis folds, the result must also equal Crop followed by
// AggregateAlong bit for bit: the order the chained operators used.
func TestProjectDenseBoxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		rank := 1 + rng.Intn(4)
		shape := make(nd.Shape, rank)
		for i := range shape {
			shape[i] = 1 + rng.Intn(5)
		}
		vals := make([]float64, shape.Size())
		for i := range vals {
			vals[i] = rng.NormFloat64() * 1e3
		}
		src, _ := FromValues(shape, vals)
		lo, hi := make([]int, rank), make([]int, rank)
		var keep []int
		for i := range shape {
			lo[i] = rng.Intn(shape[i])
			hi[i] = lo[i] + 1 + rng.Intn(shape[i]-lo[i])
			if rng.Intn(2) == 0 {
				keep = append(keep, i)
			}
		}
		box := nd.Block{Lo: lo, Hi: hi}
		for _, op := range []agg.Op{agg.Sum, agg.Count, agg.Max, agg.Min} {
			got, updates := ProjectDense(src, box, keep, op)
			if updates != int64(box.Size()) {
				t.Fatalf("box %v: updates = %d, want %d", box, updates, box.Size())
			}
			want := refProjectBox(src, box, keep, op)
			assertBits(t, got, want, "box %v keep %v op %v", box, keep, op)
			var folded []int
			for i := range shape {
				if !slices.Contains(keep, i) && hi[i]-lo[i] > 1 {
					folded = append(folded, i)
				}
			}
			if len(folded) != 1 {
				continue
			}
			chain := src.Crop(lo, hi).AggregateAlong(folded[0], op)
			for i := rank - 1; i >= 0; i-- {
				if i != folded[0] && !slices.Contains(keep, i) {
					chain = chain.SliceAxis(i-btoi(i > folded[0]), 0)
				}
			}
			assertBits(t, got, chain, "box %v keep %v op %v vs chain", box, keep, op)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func assertBits(t *testing.T, got, want *Dense, format string, args ...any) {
	t.Helper()
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf(format+": shape %v, want %v", append(args, got.Shape(), want.Shape())...)
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf(format+": cell %d = %v, want %v", append(args, i, g, w)...)
		}
	}
}

// TestProjectDenseBoxCopiesUnfolded: a box that folds nothing (kept
// axes diced, dropped axes sliced to one cell) copies its cells, so a
// -0 or a value below Max's identity survives as stored.
func TestProjectDenseBoxCopiesUnfolded(t *testing.T) {
	negZero := math.Copysign(0, -1)
	src, _ := FromValues(nd.MustShape(2, 3), []float64{1, negZero, 3, 4, 5, negZero})
	box := nd.Block{Lo: []int{1, 1}, Hi: []int{2, 3}}
	for _, op := range []agg.Op{agg.Sum, agg.Max, agg.Min} {
		got, _ := ProjectDense(src, box, []int{1}, op)
		if got.At(0) != 5 || math.Float64bits(got.At(1)) != math.Float64bits(negZero) {
			t.Fatalf("%v: sliced row = %v, want [5 -0]", op, got.Data())
		}
	}
	// Folding two cells starts from Sum's identity, +0.
	got, _ := ProjectDense(src, nd.Block{Lo: []int{0, 1}, Hi: []int{2, 2}}, []int{1}, agg.Sum)
	if got.At(0) != 5 || math.Signbit(got.At(0)) {
		t.Fatalf("folded column = %v", got.Data())
	}
}

func TestProjectDenseBoxPanics(t *testing.T) {
	d := NewDense(nd.MustShape(3, 3), agg.Sum)
	for _, box := range []nd.Block{
		{Lo: []int{0}, Hi: []int{3}},        // rank mismatch
		{Lo: []int{0, 2}, Hi: []int{3, 2}},  // empty
		{Lo: []int{-1, 0}, Hi: []int{3, 3}}, // below the extent
		{Lo: []int{0, 0}, Hi: []int{3, 4}},  // past the extent
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for box %v", box)
				}
			}()
			ProjectDense(d, box, []int{0}, agg.Sum)
		}()
	}
}

func TestCombineAt(t *testing.T) {
	dst := NewDense(nd.MustShape(4, 4), agg.Sum)
	src, _ := FromValues(nd.MustShape(2, 2), []float64{1, 2, 3, 4})
	dst.CombineAt(src, []int{1, 2}, agg.Sum)
	if dst.At(1, 2) != 1 || dst.At(1, 3) != 2 || dst.At(2, 2) != 3 || dst.At(2, 3) != 4 {
		t.Fatalf("placed = %v", dst.Data())
	}
	// Second placement combines.
	dst.CombineAt(src, []int{1, 2}, agg.Sum)
	if dst.At(2, 3) != 8 {
		t.Fatalf("recombined = %v", dst.At(2, 3))
	}
	// Untouched cells stay zero.
	if dst.At(0, 0) != 0 || dst.At(3, 3) != 0 {
		t.Fatal("spill outside region")
	}
}

func TestCombineAtScalar(t *testing.T) {
	dst := NewDense(nd.Shape{}, agg.Sum)
	src := NewDense(nd.Shape{}, agg.Sum)
	src.Data()[0] = 7
	dst.CombineAt(src, nil, agg.Sum)
	if dst.Scalar() != 7 {
		t.Fatalf("scalar CombineAt = %v", dst.Scalar())
	}
}

func TestCombineAtMax(t *testing.T) {
	dst := NewDense(nd.MustShape(2), agg.Max)
	src, _ := FromValues(nd.MustShape(2), []float64{3, -1})
	dst.CombineAt(src, []int{0}, agg.Max)
	if dst.At(0) != 3 || dst.At(1) != -1 {
		t.Fatalf("max place = %v", dst.Data())
	}
}

func TestCombineAtPanics(t *testing.T) {
	dst := NewDense(nd.MustShape(3, 3), agg.Sum)
	src := NewDense(nd.MustShape(2, 2), agg.Sum)
	cases := [][]int{{2, 2}, {-1, 0}, {0}}
	for _, lo := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for lo %v", lo)
				}
			}()
			dst.CombineAt(src, lo, agg.Sum)
		}()
	}
	// Rank mismatch.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic for rank mismatch")
			}
		}()
		dst.CombineAt(NewDense(nd.MustShape(2), agg.Sum), []int{0, 0}, agg.Sum)
	}()
}

// Property: tiling a destination with CombineAt from disjoint crops
// reconstructs the original exactly.
func TestQuickCombineAtReconstruct(t *testing.T) {
	f := func(vals [16]uint8) bool {
		shape := nd.MustShape(4, 4)
		data := make([]float64, 16)
		for i, v := range vals {
			data[i] = float64(v)
		}
		src, _ := FromValues(shape, data)
		dst := NewDense(shape, agg.Sum)
		for _, q := range [][2][]int{
			{{0, 0}, {2, 2}}, {{0, 2}, {2, 4}}, {{2, 0}, {4, 2}}, {{2, 2}, {4, 4}},
		} {
			dst.CombineAt(src.Crop(q[0], q[1]), q[0], agg.Sum)
		}
		return dst.Equal(src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
