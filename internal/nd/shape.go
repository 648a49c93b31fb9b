// Package nd provides n-dimensional index arithmetic shared by every other
// package in the repository: shapes, row-major strides, coordinate/offset
// conversion, and block (slab) decomposition of arrays across processors.
//
// Conventions: dimension 0 is the slowest-varying (outermost) axis, matching
// row-major (C) layout. A Shape is a list of positive extents. Offsets are
// int (not int64) because simulated arrays are bounded by host memory.
package nd

import (
	"fmt"
	"strconv"
	"strings"
)

// Shape is the extent of an n-dimensional array along each axis.
type Shape []int

// NewShape validates sizes and returns them as a Shape. Every extent must be
// at least 1 and the total element count must not overflow int.
func NewShape(sizes ...int) (Shape, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("nd: shape needs at least one dimension")
	}
	total := 1
	for i, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("nd: dimension %d has non-positive extent %d", i, s)
		}
		if total > (1<<62)/s {
			return nil, fmt.Errorf("nd: shape %v overflows element count", sizes)
		}
		total *= s
	}
	out := make(Shape, len(sizes))
	copy(out, sizes)
	return out, nil
}

// ParseShape parses the "64x32x16" form String prints into a validated
// Shape. Spaces around an extent are ignored.
func ParseShape(s string) (Shape, error) {
	parts := strings.Split(s, "x")
	sizes := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad shape %q: %w", s, err)
		}
		sizes[i] = v
	}
	shape, err := NewShape(sizes...)
	if err != nil {
		return nil, fmt.Errorf("bad shape %q: %w", s, err)
	}
	return shape, nil
}

// MustShape is NewShape that panics on invalid input; intended for tests and
// literals whose validity is evident at the call site.
func MustShape(sizes ...int) Shape {
	s, err := NewShape(sizes...)
	if err != nil {
		panic(err)
	}
	return s
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// Size returns the total number of elements, the product of all extents.
func (s Shape) Size() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	out := make(Shape, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Strides returns row-major strides: stride[i] is the offset distance between
// consecutive indices along axis i.
func (s Shape) Strides() []int {
	st := make([]int, len(s))
	acc := 1
	for i := len(s) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= s[i]
	}
	return st
}

// Drop returns the shape with axis i removed. Dropping the only axis yields
// the scalar shape, represented as an empty Shape (Size() == 1).
func (s Shape) Drop(i int) Shape {
	out := make(Shape, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// Keep returns the shape restricted to the given axes, in the order given.
func (s Shape) Keep(axes []int) Shape {
	out := make(Shape, len(axes))
	for i, a := range axes {
		out[i] = s[a]
	}
	return out
}

// String renders the shape as, e.g., "64x64x32".
func (s Shape) String() string {
	if len(s) == 0 {
		return "scalar"
	}
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return strings.Join(parts, "x")
}

// Offset converts coordinates to a row-major linear offset. Coordinates are
// not bounds-checked; use Contains for validation.
func (s Shape) Offset(coords []int) int {
	off := 0
	for i, c := range coords {
		off = off*s[i] + c
	}
	return off
}

// Coords converts a row-major linear offset into coordinates, writing them
// into dst (which must have length Rank()) and returning it.
func (s Shape) Coords(off int, dst []int) []int {
	for i := len(s) - 1; i >= 0; i-- {
		dst[i] = off % s[i]
		off /= s[i]
	}
	return dst
}

// Contains reports whether coords is a valid index into the shape.
func (s Shape) Contains(coords []int) bool {
	if len(coords) != len(s) {
		return false
	}
	for i, c := range coords {
		if c < 0 || c >= s[i] {
			return false
		}
	}
	return true
}

// SortedDescending reports whether extents satisfy s[0] >= s[1] >= ... —
// the ordering the paper's optimality theorems (6 and 7) require.
func (s Shape) SortedDescending() bool {
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1] {
			return false
		}
	}
	return true
}
