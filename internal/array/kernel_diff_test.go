package array

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parcube/internal/agg"
	"parcube/internal/nd"
)

// The kernel differential: Scan, ScanSparse, ScanSource and ProjectSparse
// against naive per-cell references that decode every cell's coordinates
// and fold it with agg's own Apply/Combine, in the parent's order. Values
// are non-integer, so any change in the order a cell receives its
// contributions changes its bits, and results compare with
// math.Float64bits.

var diffOps = []agg.Op{agg.Sum, agg.Count, agg.Max, agg.Min}
var diffFolds = []agg.Fold{agg.FoldInput, agg.FoldPartial}

func refFold(op agg.Op, fold agg.Fold, acc, v float64) float64 {
	if fold == agg.FoldInput {
		return op.Apply(acc, v)
	}
	return op.Combine(acc, v)
}

// refProjectCells folds every (coords, value) cell into the group-by that
// keeps the given axes, one cell at a time.
func refProjectCells(shape nd.Shape, iter func(func([]int, float64)), keep []int, op agg.Op, fold agg.Fold) *Dense {
	out := NewDense(shape.Keep(keep), op)
	kc := make([]int, len(keep))
	iter(func(coords []int, v float64) {
		for i, a := range keep {
			kc[i] = coords[a]
		}
		o := out.shape.Offset(kc)
		out.data[o] = refFold(op, fold, out.data[o], v)
	})
	return out
}

// denseCells visits every element of d in row-major order.
func denseCells(d *Dense) func(func([]int, float64)) {
	return func(fn func([]int, float64)) {
		coords := make([]int, d.Rank())
		for off, v := range d.data {
			d.shape.Coords(off, coords)
			fn(coords, v)
		}
	}
}

func keepAllBut(rank, drop int) []int {
	keep := make([]int, 0, rank-1)
	for a := 0; a < rank; a++ {
		if a != drop {
			keep = append(keep, a)
		}
	}
	return keep
}

func sameBits(a, b *Dense) bool {
	if !a.shape.Equal(b.shape) {
		return false
	}
	for i := range a.data {
		if math.Float64bits(a.data[i]) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

// diffCase is one random geometry: a shape of rank 1-5 whose extents are
// mostly not multiples of the chunk side, with chunk sides of 1, of a
// random size, or past the extent.
type diffCase struct {
	shape, sides nd.Shape
	density      float64
}

func randDiffCase(rng *rand.Rand, rank int) diffCase {
	maxExt := []int{0, 40, 13, 9, 7, 5}[rank]
	shape := make(nd.Shape, rank)
	sides := make(nd.Shape, rank)
	for i := range shape {
		shape[i] = rng.Intn(maxExt) + 1
		switch rng.Intn(3) {
		case 0:
			sides[i] = 1
		case 1:
			sides[i] = rng.Intn(shape[i]) + 1
		default:
			sides[i] = shape[i] + rng.Intn(3)
		}
	}
	// Sparse enough to leave chunks empty and to take the per-entry
	// path, or dense enough for the offset tables.
	density := []float64{0.03, 0.3, 1}[rng.Intn(3)]
	return diffCase{shape: shape, sides: sides, density: density}
}

func (c diffCase) String() string {
	return fmt.Sprintf("shape=%v sides=%v density=%v", c.shape, c.sides, c.density)
}

func (c diffCase) sparse(t *testing.T, rng *rand.Rand) *Sparse {
	t.Helper()
	b, err := NewSparseBuilder(c.shape, c.sides)
	if err != nil {
		t.Fatal(err)
	}
	coords := make([]int, c.shape.Rank())
	for off := 0; off < c.shape.Size(); off++ {
		if rng.Float64() >= c.density {
			continue
		}
		c.shape.Coords(off, coords)
		if err := b.Add(coords, rng.NormFloat64()*100+1.0/3); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func randDense(rng *rand.Rand, shape nd.Shape) *Dense {
	d := NewDense(shape, agg.Sum)
	for i := range d.data {
		d.data[i] = rng.NormFloat64()*100 + 1.0/7
	}
	return d
}

// allAxesTargets returns one target per parent axis, each initialized to
// the operator's identity.
func allAxesTargets(shape nd.Shape, op agg.Op) []Target {
	targets := make([]Target, shape.Rank())
	for a := range targets {
		targets[a] = Target{Child: NewDense(shape.Drop(a), op), DropAxis: a}
	}
	return targets
}

// chunkSource hides a Sparse behind the Source interface, so ScanSource
// takes its generic path.
type chunkSource struct{ s *Sparse }

func (c chunkSource) Shape() nd.Shape { return c.s.Shape() }
func (c chunkSource) IterChunks(fn func(nd.Block, []Entry) error) error {
	return c.s.IterChunks(fn)
}

func TestKernelsMatchPerCellReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for rank := 1; rank <= 5; rank++ {
		for trial := 0; trial < 12; trial++ {
			c := randDiffCase(rng, rank)
			sp := c.sparse(t, rng)
			dn := randDense(rng, c.shape)
			for _, op := range diffOps {
				for _, fold := range diffFolds {
					name := fmt.Sprintf("%v %v/fold=%d", c, op, fold)
					checkSparseKernels(t, name, sp, op, fold)
					targets := allAxesTargets(c.shape, op)
					if n := Scan(dn, targets, op, fold); n != int64(dn.Size()*rank) {
						t.Fatalf("%s: Scan updates %d, want %d", name, n, dn.Size()*rank)
					}
					for _, tg := range targets {
						want := refProjectCells(c.shape, denseCells(dn), keepAllBut(rank, tg.DropAxis), op, fold)
						if !sameBits(tg.Child, want) {
							t.Fatalf("%s: Scan drop %d:\n got %v\nwant %v", name, tg.DropAxis, tg.Child.data, want.data)
						}
					}
				}
			}
		}
	}
}

// checkSparseKernels compares ScanSparse, ScanSource and ProjectSparse on
// sp with the per-cell reference over sp.Iter.
func checkSparseKernels(t *testing.T, name string, sp *Sparse, op agg.Op, fold agg.Fold) {
	t.Helper()
	shape := sp.Shape()
	rank := shape.Rank()
	viaSparse := allAxesTargets(shape, op)
	if n := ScanSparse(sp, viaSparse, op, fold); n != int64(sp.NNZ()*rank) {
		t.Fatalf("%s: ScanSparse updates %d, want %d", name, n, sp.NNZ()*rank)
	}
	viaSource := allAxesTargets(shape, op)
	if n, err := ScanSource(chunkSource{sp}, viaSource, op, fold); err != nil || n != int64(sp.NNZ()*rank) {
		t.Fatalf("%s: ScanSource updates %d, err %v", name, n, err)
	}
	for a := 0; a < rank; a++ {
		want := refProjectCells(shape, sp.Iter, keepAllBut(rank, a), op, fold)
		if !sameBits(viaSparse[a].Child, want) {
			t.Fatalf("%s: ScanSparse drop %d:\n got %v\nwant %v", name, a, viaSparse[a].Child.data, want.data)
		}
		if !sameBits(viaSource[a].Child, want) {
			t.Fatalf("%s: ScanSource drop %d differs from the reference", name, a)
		}
	}
	// Every subset of axes for ProjectSparse: the empty set is the grand
	// total, the full set the densified array.
	for mask := 0; mask < 1<<rank; mask++ {
		var keep []int
		for a := 0; a < rank; a++ {
			if mask&(1<<a) != 0 {
				keep = append(keep, a)
			}
		}
		got, n := ProjectSparse(sp, keep, op, fold)
		if n != int64(sp.NNZ()) {
			t.Fatalf("%s: ProjectSparse keep %v updates %d, want %d", name, keep, n, sp.NNZ())
		}
		if want := refProjectCells(shape, sp.Iter, keep, op, fold); !sameBits(got, want) {
			t.Fatalf("%s: ProjectSparse keep %v:\n got %v\nwant %v", name, keep, got.data, want.data)
		}
	}
}

// TestKernelsMatchReferenceOnSplitInput runs the sparse kernels on the
// pieces Split makes, whose chunks are either shared source chunks or
// re-cut remainders with their own offsets.
func TestKernelsMatchReferenceOnSplitInput(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		rank := rng.Intn(4) + 2
		c := randDiffCase(rng, rank)
		sp := c.sparse(t, rng)
		// Halve every axis that has room, which yields 2^k blocks.
		blocks := []nd.Block{nd.FullBlock(c.shape)}
		for a := 0; a < rank; a++ {
			if c.shape[a] < 2 {
				continue
			}
			mid := rng.Intn(c.shape[a]-1) + 1
			var next []nd.Block
			for _, b := range blocks {
				lo := nd.NewBlock(b.Lo, b.Hi)
				hi := nd.NewBlock(b.Lo, b.Hi)
				lo.Hi[a], hi.Lo[a] = mid, mid
				next = append(next, lo, hi)
			}
			blocks = next
		}
		parts, err := sp.Split(blocks)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range parts {
			for _, op := range diffOps {
				checkSparseKernels(t, fmt.Sprintf("%v part %d %v", c, i, op), p, op, agg.FoldInput)
			}
		}
	}
}

// TestScanSourceReportsSourceError: a source that fails mid-stream makes
// ScanSource return its error.
func TestScanSourceReportsSourceError(t *testing.T) {
	boom := errors.New("boom")
	sp := randSparse(t, nd.MustShape(40, 3), 60, 5)
	src := failingSource{sp, boom}
	if _, err := ScanSource(src, allAxesTargets(sp.Shape(), agg.Sum), agg.Sum, agg.FoldInput); !errors.Is(err, boom) {
		t.Fatalf("ScanSource error %v, want %v", err, boom)
	}
}

// failingSource streams its first chunk, then fails.
type failingSource struct {
	s   *Sparse
	err error
}

func (f failingSource) Shape() nd.Shape { return f.s.Shape() }
func (f failingSource) IterChunks(fn func(nd.Block, []Entry) error) error {
	first := true
	return f.s.IterChunks(func(b nd.Block, es []Entry) error {
		if !first {
			return f.err
		}
		first = false
		return fn(b, es)
	})
}
