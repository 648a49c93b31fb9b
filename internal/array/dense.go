// Package array implements the storage the cube engines operate on: dense
// row-major n-dimensional arrays, sparse arrays with the chunk-offset
// compression used by the paper's experiments (Section 6), and the
// multi-way aggregation kernels that update all children of a node in a
// single scan of the parent — the cache/memory-reuse discipline the
// aggregation tree is built around.
package array

import (
	"fmt"
	"math"

	"parcube/internal/agg"
	"parcube/internal/nd"
)

// Dense is a dense row-major n-dimensional array of float64 accumulators.
// A rank-0 Dense (scalar) has exactly one element.
type Dense struct {
	shape nd.Shape
	data  []float64
}

// NewDense allocates a dense array of the given shape with every element set
// to the identity of op, ready to accumulate.
func NewDense(shape nd.Shape, op agg.Op) *Dense {
	d := &Dense{shape: shape.Clone(), data: make([]float64, shape.Size())}
	if id := op.Identity(); id != 0 {
		op.Fill(d.data)
	}
	return d
}

// FromValues builds a dense array from explicit row-major values, copying
// them. The value count must match the shape size.
func FromValues(shape nd.Shape, values []float64) (*Dense, error) {
	if len(values) != shape.Size() {
		return nil, fmt.Errorf("array: %d values for shape %v (size %d)", len(values), shape, shape.Size())
	}
	d := &Dense{shape: shape.Clone(), data: make([]float64, len(values))}
	copy(d.data, values)
	return d, nil
}

// Wrap builds a dense array over explicit row-major values without
// copying: the array owns shape and values from then on. The value count
// must match the shape size.
func Wrap(shape nd.Shape, values []float64) *Dense {
	if len(values) != shape.Size() {
		panic(fmt.Sprintf("array: %d values for shape %v (size %d)", len(values), shape, shape.Size()))
	}
	return &Dense{shape: shape, data: values}
}

// Shape returns the array's shape. Callers must not modify it.
func (d *Dense) Shape() nd.Shape { return d.shape }

// Rank returns the number of dimensions.
func (d *Dense) Rank() int { return d.shape.Rank() }

// Size returns the number of elements.
func (d *Dense) Size() int { return len(d.data) }

// Bytes returns the payload size in bytes (8 per element).
func (d *Dense) Bytes() int64 { return int64(len(d.data)) * 8 }

// Data exposes the backing slice for kernels and transports. Treat the
// aliasing with care: mutations are visible to the array.
func (d *Dense) Data() []float64 { return d.data }

// At returns the element at the given coordinates.
func (d *Dense) At(coords ...int) float64 {
	if !d.shape.Contains(coords) && d.shape.Rank() != 0 {
		panic(fmt.Sprintf("array: coords %v out of range for %v", coords, d.shape))
	}
	return d.data[d.shape.Offset(coords)]
}

// Set stores v at the given coordinates.
func (d *Dense) Set(v float64, coords ...int) {
	if !d.shape.Contains(coords) && d.shape.Rank() != 0 {
		panic(fmt.Sprintf("array: coords %v out of range for %v", coords, d.shape))
	}
	d.data[d.shape.Offset(coords)] = v
}

// Scalar returns the single element of a rank-0 array.
func (d *Dense) Scalar() float64 {
	if d.shape.Rank() != 0 {
		panic(fmt.Sprintf("array: Scalar on rank-%d array", d.shape.Rank()))
	}
	return d.data[0]
}

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	out := &Dense{shape: d.shape.Clone(), data: make([]float64, len(d.data))}
	copy(out.data, d.data)
	return out
}

// Equal reports exact element-wise equality of shape and data.
func (d *Dense) Equal(o *Dense) bool {
	if !d.shape.Equal(o.shape) {
		return false
	}
	for i := range d.data {
		if d.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// AlmostEqual reports element-wise equality within absolute-or-relative
// tolerance eps, the right comparison after reassociated float reductions.
func (d *Dense) AlmostEqual(o *Dense, eps float64) bool {
	if !d.shape.Equal(o.shape) {
		return false
	}
	for i := range d.data {
		a, b := d.data[i], o.data[i]
		if a == b {
			continue
		}
		if math.Abs(a-b) > eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b))) {
			return false
		}
	}
	return true
}

// Combine folds src into d element-wise with op. Shapes must match.
func (d *Dense) Combine(src *Dense, op agg.Op) {
	if !d.shape.Equal(src.shape) {
		panic(fmt.Sprintf("array: Combine shape mismatch %v vs %v", d.shape, src.shape))
	}
	op.CombineSlices(d.data, src.data)
}

// AggregateAlong collapses a single axis with op, returning a new array of
// rank one less. This is the reference single-child kernel; engines that
// compute several children at once use Scan instead.
//
//cubelint:hotpath reference single-axis collapse kernel
func (d *Dense) AggregateAlong(axis int, op agg.Op) *Dense {
	if axis < 0 || axis >= d.shape.Rank() {
		panic(fmt.Sprintf("array: axis %d out of range for %v", axis, d.shape))
	}
	out := NewDense(d.shape.Drop(axis), op)
	strides := d.shape.Strides()
	outer := 1 // product of extents before axis
	for i := 0; i < axis; i++ {
		outer *= d.shape[i]
	}
	mid := d.shape[axis]
	inner := strides[axis] // product of extents after axis
	for o := 0; o < outer; o++ {
		base := o * mid * inner
		outBase := o * inner
		for m := 0; m < mid; m++ {
			row := base + m*inner
			for in := 0; in < inner; in++ {
				out.data[outBase+in] = op.Combine(out.data[outBase+in], d.data[row+in])
			}
		}
	}
	return out
}
