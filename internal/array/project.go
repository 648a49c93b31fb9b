package array

import (
	"fmt"
	"sort"

	"parcube/internal/agg"
	"parcube/internal/nd"
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

// ProjectDense folds the cells of src inside box onto the group-by that
// keeps only the given axes (ascending), in one pass, with coordinates
// re-based to box.Lo: the OLAP slice, dice and roll-up as one operator.
// A box of src's full extent is the plain projection. Source values are
// treated as partial accumulators (Combine), matching how group-bys
// derive from other group-bys.
//
// It walks the box one row at a time along the last axis, in row-major
// order, so each output cell receives its contributions in the order of
// their source offsets, starting from the identity. A dropped axis whose
// box extent is 1 is a slice, not a fold: when no axis folds, every
// output cell is copied from its one source cell. Returns the result
// and the update count (one per cell of the box).
//
//cubelint:hotpath one-pass statement evaluation, once per QUERY miss
func ProjectDense(src *Dense, box nd.Block, keepAxes []int, op agg.Op) (*Dense, int64) {
	if !sort.IntsAreSorted(keepAxes) {
		panic(fmt.Sprintf("array: keep axes %v not ascending", keepAxes))
	}
	rank := src.Rank()
	for _, a := range keepAxes {
		if a < 0 || a >= rank {
			panic(fmt.Sprintf("array: keep axis %d out of range for %v", a, src.shape))
		}
	}
	if len(box.Lo) != rank || len(box.Hi) != rank {
		panic(fmt.Sprintf("array: box %v does not match %v", box, src.shape))
	}
	outShape := make(nd.Shape, len(keepAxes))
	folds, k := false, 0
	for i := 0; i < rank; i++ {
		ext := box.Hi[i] - box.Lo[i]
		if box.Lo[i] < 0 || box.Hi[i] > src.shape[i] || ext < 1 {
			panic(fmt.Sprintf("array: box %v invalid for %v", box, src.shape))
		}
		if k < len(keepAxes) && keepAxes[k] == i {
			outShape[k] = ext
			k++
		} else if ext > 1 {
			folds = true
		}
	}
	out := &Dense{shape: outShape, data: make([]float64, outShape.Size())}
	if rank == 0 {
		out.data[0] = src.data[0]
		return out, 1
	}
	if folds && op.Identity() != 0 {
		op.Fill(out.data)
	}
	kind := kindOf(op, agg.FoldPartial)

	sc := scanPool.Get().(*scanScratch)
	// cstride[:rank] is src's stride per axis and cstride[rank:] the
	// output's (zero on a dropped axis); coords is the odometer over the
	// box's leading axes, relative to box.Lo.
	sc.cstride = intScratch(sc.cstride, 2*rank)
	sc.coords = intScratchZero(sc.coords, rank)
	sst, ost, coords := sc.cstride[:rank], sc.cstride[rank:], sc.coords
	soff, acc, oacc := 0, 1, 1
	k = len(keepAxes) - 1
	for i := rank - 1; i >= 0; i-- {
		sst[i] = acc
		acc *= src.shape[i]
		soff += box.Lo[i] * sst[i]
		ost[i] = 0
		if k >= 0 && keepAxes[k] == i {
			ost[i] = oacc
			oacc *= outShape[k]
			k--
		}
	}

	last := rank - 1
	rowLen := box.Hi[last] - box.Lo[last]
	keepLast := len(keepAxes) > 0 && keepAxes[len(keepAxes)-1] == last
	ooff := 0
	for {
		row := src.data[soff : soff+rowLen]
		switch {
		case !folds && keepLast:
			copy(out.data[ooff:ooff+rowLen], row)
		case !folds:
			out.data[ooff] = row[0]
		case keepLast:
			foldRow(kind, out.data[ooff:ooff+rowLen], row)
		default:
			out.data[ooff] = reduceRow(kind, out.data[ooff], row)
		}
		// Advance the odometer over the box's leading axes.
		i := last - 1
		for ; i >= 0; i-- {
			coords[i]++
			if coords[i] < box.Hi[i]-box.Lo[i] {
				soff += sst[i]
				ooff += ost[i]
				break
			}
			coords[i] = 0
			soff -= (box.Hi[i] - box.Lo[i] - 1) * sst[i]
			ooff -= (box.Hi[i] - box.Lo[i] - 1) * ost[i]
		}
		if i < 0 {
			break
		}
	}
	scanPool.Put(sc)
	return out, int64(box.Size())
}
