package array

import (
	"fmt"

	"parcube/internal/agg"
	"parcube/internal/nd"
)

// SliceAxis returns the (rank-1)-dimensional sub-array at a fixed index
// along one axis — the OLAP "slice" operation. The result is a copy.
func (d *Dense) SliceAxis(axis, index int) *Dense {
	rank := d.Rank()
	if axis < 0 || axis >= rank {
		panic(fmt.Sprintf("array: axis %d out of range for %v", axis, d.shape))
	}
	if index < 0 || index >= d.shape[axis] {
		panic(fmt.Sprintf("array: index %d out of range on axis %d of %v", index, axis, d.shape))
	}
	outShape := d.shape.Drop(axis)
	out := &Dense{shape: outShape, data: make([]float64, outShape.Size())}
	strides := d.shape.Strides()
	outer := 1
	for i := 0; i < axis; i++ {
		outer *= d.shape[i]
	}
	inner := strides[axis]
	for o := 0; o < outer; o++ {
		src := o*d.shape[axis]*inner + index*inner
		copy(out.data[o*inner:(o+1)*inner], d.data[src:src+inner])
	}
	return out
}

// Crop returns the sub-array covering [lo[i], hi[i]) along each axis — the
// OLAP "dice" operation. The result is a copy with its own origin.
func (d *Dense) Crop(lo, hi []int) *Dense {
	rank := d.Rank()
	if len(lo) != rank || len(hi) != rank {
		panic(fmt.Sprintf("array: Crop bounds rank mismatch for %v", d.shape))
	}
	outSizes := make(nd.Shape, rank)
	for i := 0; i < rank; i++ {
		if lo[i] < 0 || hi[i] > d.shape[i] || lo[i] >= hi[i] {
			panic(fmt.Sprintf("array: Crop range [%d,%d) invalid on axis %d of %v", lo[i], hi[i], i, d.shape))
		}
		outSizes[i] = hi[i] - lo[i]
	}
	out := &Dense{shape: outSizes, data: make([]float64, outSizes.Size())}
	if rank == 0 {
		out.data[0] = d.data[0]
		return out
	}
	srcStrides := d.shape.Strides()
	base := 0
	for i, l := range lo {
		base += l * srcStrides[i]
	}
	// Copy row by row along the last axis.
	rowLen := outSizes[rank-1]
	coords := make([]int, rank-1)
	for dst := 0; dst < out.Size(); dst += rowLen {
		src := base
		for i := 0; i < rank-1; i++ {
			src += coords[i] * srcStrides[i]
		}
		copy(out.data[dst:dst+rowLen], d.data[src:src+rowLen])
		for i := rank - 2; i >= 0; i-- {
			coords[i]++
			if coords[i] < outSizes[i] {
				break
			}
			coords[i] = 0
		}
	}
	return out
}

// MapAxis re-bins one axis through a coordinate mapping: output coordinate
// mapping[c] receives every input cell with coordinate c on the axis,
// folded with op. This implements hierarchy roll-ups (day -> month,
// SKU -> category): mapping[c] must lie in [0, newSize).
func MapAxis(src *Dense, axis int, mapping []int, newSize int, op agg.Op) *Dense {
	rank := src.Rank()
	if axis < 0 || axis >= rank {
		panic(fmt.Sprintf("array: axis %d out of range for %v", axis, src.shape))
	}
	if len(mapping) != src.shape[axis] {
		panic(fmt.Sprintf("array: mapping has %d entries for extent %d", len(mapping), src.shape[axis]))
	}
	if newSize < 1 {
		panic(fmt.Sprintf("array: non-positive mapped extent %d", newSize))
	}
	for c, m := range mapping {
		if m < 0 || m >= newSize {
			panic(fmt.Sprintf("array: mapping[%d] = %d outside [0,%d)", c, m, newSize))
		}
	}
	outSizes := src.shape.Clone()
	outSizes[axis] = newSize
	out := NewDense(outSizes, op)
	srcStrides := src.shape.Strides()
	outStrides := out.shape.Strides()
	outer := 1
	for i := 0; i < axis; i++ {
		outer *= src.shape[i]
	}
	inner := srcStrides[axis]
	for o := 0; o < outer; o++ {
		for c := 0; c < src.shape[axis]; c++ {
			srcBase := o*src.shape[axis]*inner + c*inner
			dstBase := o*newSize*inner + mapping[c]*outStrides[axis]
			for in := 0; in < inner; in++ {
				out.data[dstBase+in] = op.Combine(out.data[dstBase+in], src.data[srcBase+in])
			}
		}
	}
	return out
}
