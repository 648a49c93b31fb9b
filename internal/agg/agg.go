// Package agg defines the associative aggregation operators applied while
// collapsing cube dimensions. The paper's experiments aggregate by SUM; the
// cube algorithms in this repository work for any associative, commutative
// operator with an identity, which is what both the simultaneous-children
// scan (cache reuse) and the parallel reductions require.
package agg

import (
	"fmt"
	"math"
)

// Op identifies an aggregation operator.
type Op int

const (
	// Sum adds values; identity 0. The paper's operator.
	Sum Op = iota
	// Count counts contributing input cells; identity 0.
	Count
	// Max keeps the maximum; identity -Inf.
	Max
	// Min keeps the minimum; identity +Inf.
	Min
)

// String returns the operator name.
func (o Op) String() string {
	switch o {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Max:
		return "max"
	case Min:
		return "min"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Valid reports whether o is a defined operator.
func (o Op) Valid() bool { return o >= Sum && o <= Min }

// Parse converts an operator name ("sum", "count", "max", "min") to an Op.
func Parse(name string) (Op, error) {
	switch name {
	case "sum":
		return Sum, nil
	case "count":
		return Count, nil
	case "max":
		return Max, nil
	case "min":
		return Min, nil
	default:
		return 0, fmt.Errorf("agg: unknown operator %q", name)
	}
}

// Identity returns the operator's identity element, the value result cells
// are initialized with before any input contributes.
func (o Op) Identity() float64 {
	switch o {
	case Max:
		return math.Inf(-1)
	case Min:
		return math.Inf(1)
	default:
		return 0
	}
}

// Apply folds a raw input value into an accumulator. Count ignores the value
// and adds one per contributing cell.
func (o Op) Apply(acc, v float64) float64 {
	switch o {
	case Sum:
		return acc + v
	case Count:
		return acc + 1
	case Max:
		if v > acc {
			return v
		}
		return acc
	case Min:
		if v < acc {
			return v
		}
		return acc
	default:
		panic("agg: invalid operator")
	}
}

// Combine merges two partial accumulators. This is what interprocessor
// reductions use; for every operator here Combine is associative and
// commutative, so reduction order (binomial tree, flat gather) cannot
// change the result.
func (o Op) Combine(a, b float64) float64 {
	switch o {
	case Sum, Count:
		return a + b
	case Max:
		if b > a {
			return b
		}
		return a
	case Min:
		if b < a {
			return b
		}
		return a
	default:
		panic("agg: invalid operator")
	}
}

// CombineSlices folds src into dst element-wise: dst[i] = Combine(dst[i],
// src[i]). The slices must have equal length.
func (o Op) CombineSlices(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("agg: CombineSlices length mismatch %d != %d", len(dst), len(src)))
	}
	switch o {
	case Sum, Count:
		for i, v := range src {
			dst[i] += v
		}
	case Max:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case Min:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic("agg: invalid operator")
	}
}

// Fold selects how scanned values enter an accumulator: raw input cells go
// through Apply (Count adds one per cell), while values that are themselves
// partial accumulators — every non-root node of the cube — must go through
// Combine (Count adds the partial counts).
type Fold int

const (
	// FoldInput treats scanned values as raw input cells.
	FoldInput Fold = iota
	// FoldPartial treats scanned values as partial accumulators.
	FoldPartial
)

// Fill sets every element of dst to the operator's identity.
func (o Op) Fill(dst []float64) {
	id := o.Identity()
	for i := range dst {
		dst[i] = id
	}
}
