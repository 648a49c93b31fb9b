package array

import (
	"fmt"
	"sort"

	"parcube/internal/agg"
)

// ProjectSparse aggregates a sparse array directly onto the group-by that
// keeps only the given axes (ascending), collapsing all others in one pass.
// It is the kernel of the naive root-fan baseline, which computes every
// group-by straight from the initial array. It runs the first level's
// chunk fold with a single target whose stride is zero on every dropped
// axis.
func ProjectSparse(src *Sparse, keepAxes []int, op agg.Op, fold agg.Fold) (*Dense, int64) {
	if !sort.IntsAreSorted(keepAxes) {
		panic(fmt.Sprintf("array: keep axes %v not ascending", keepAxes))
	}
	shape := src.Shape()
	for _, a := range keepAxes {
		if a < 0 || a >= shape.Rank() {
			panic(fmt.Sprintf("array: keep axis %d out of range for %v", a, shape))
		}
	}
	out := NewDense(shape.Keep(keepAxes), op)
	sc := newChunkFold(kindOf(op, fold), shape.Rank(), 1)
	sc.outs[0] = out.data
	clear(sc.cstride)
	acc := 1
	for i := len(keepAxes) - 1; i >= 0; i-- {
		sc.cstride[keepAxes[i]] += acc
		acc *= shape[keepAxes[i]]
	}
	_ = src.IterChunks(sc.foldChunk) // foldChunk never fails
	return out, sc.release()
}

// ProjectDense aggregates a dense array onto the group-by keeping only the
// given axes (ascending), collapsing all others in one pass. Source values
// are treated as partial accumulators (Combine), matching how group-bys
// derive from other group-bys. Returns the result and the update count
// (one per source element).
func ProjectDense(src *Dense, keepAxes []int, op agg.Op) (*Dense, int64) {
	if !sort.IntsAreSorted(keepAxes) {
		panic(fmt.Sprintf("array: keep axes %v not ascending", keepAxes))
	}
	rank := src.Rank()
	for _, a := range keepAxes {
		if a < 0 || a >= rank {
			panic(fmt.Sprintf("array: keep axis %d out of range for %v", a, src.Shape()))
		}
	}
	out := NewDense(src.Shape().Keep(keepAxes), op)
	if rank == 0 {
		out.data[0] = op.Combine(out.data[0], src.data[0])
		return out, 1
	}
	outStrides := out.Shape().Strides()
	// ostride[i]: output offset movement when source coordinate i advances.
	ostride := make([]int, rank)
	for i, a := range keepAxes {
		ostride[a] = outStrides[i]
	}
	reset := make([]int, rank)
	for i := 0; i < rank; i++ {
		reset[i] = -(src.shape[i] - 1) * ostride[i]
	}
	coords := make([]int, rank)
	ooff := 0
	for soff := range src.data {
		out.data[ooff] = op.Combine(out.data[ooff], src.data[soff])
		i := rank - 1
		for ; i >= 0; i-- {
			coords[i]++
			if coords[i] < src.shape[i] {
				ooff += ostride[i]
				break
			}
			coords[i] = 0
			ooff += reset[i]
		}
		if i < 0 {
			break
		}
	}
	return out, int64(len(src.data))
}
