// Package workload generates the synthetic sparse datasets the experiments
// run on. The paper's inputs are multidimensional arrays characterized by
// shape and sparsity (the fraction of cells holding a non-zero value),
// stored in the chunk-offset compressed format; generators here reproduce
// that with fixed seeds, plus a clustered variant for skewed data.
package workload

import (
	"fmt"
	"math/rand"

	"parcube/internal/array"
	"parcube/internal/nd"
)

// Distribution selects how non-zero cells are placed.
type Distribution int

const (
	// Uniform scatters non-zero cells uniformly over the array.
	Uniform Distribution = iota
	// Clustered concentrates non-zero cells around a few Zipf-weighted
	// regions, modeling real fact tables where some item/branch/time
	// combinations dominate.
	Clustered
)

// String names the distribution.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Clustered:
		return "clustered"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Spec describes a synthetic dataset.
type Spec struct {
	// Shape is the array's dimension sizes.
	Shape nd.Shape
	// SparsityPercent is the percentage of cells holding a non-zero value,
	// e.g. 25 for the paper's densest setting.
	SparsityPercent float64
	// Seed makes generation reproducible.
	Seed int64
	// Distribution defaults to Uniform.
	Distribution Distribution
	// MaxValue bounds cell values (uniform integers in [1, MaxValue]);
	// defaults to 10.
	MaxValue int
}

// Generate materializes the dataset described by the spec. The number of
// stored cells is exactly round(sparsity * size): cells are distinct.
func Generate(spec Spec) (*array.Sparse, error) {
	if spec.Shape.Rank() == 0 {
		return nil, fmt.Errorf("workload: empty shape")
	}
	if spec.SparsityPercent <= 0 || spec.SparsityPercent > 100 {
		return nil, fmt.Errorf("workload: sparsity %.2f%% outside (0, 100]", spec.SparsityPercent)
	}
	size := spec.Shape.Size()
	nnz := int(float64(size)*spec.SparsityPercent/100 + 0.5)
	if nnz < 1 {
		nnz = 1
	}
	maxVal := spec.MaxValue
	if maxVal <= 0 {
		maxVal = 10
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	builder, err := array.NewSparseBuilder(spec.Shape, nil)
	if err != nil {
		return nil, err
	}
	coords := make([]int, spec.Shape.Rank())
	// taken marks the cells already drawn, one bit per cell of the shape.
	taken := make([]uint64, (size+63)/64)
	// sample draws a cell: its offset, with its coordinates left in coords.
	sample := func() int {
		switch spec.Distribution {
		case Clustered:
			return clusteredOffset(rng, spec.Shape, coords)
		default:
			for d := range coords {
				coords[d] = rng.Intn(spec.Shape[d])
			}
			return spec.Shape.Offset(coords)
		}
	}
	for n := 0; n < nnz; n++ {
		off := sample()
		for taken[off/64]&(1<<(off%64)) != 0 {
			off = sample()
		}
		taken[off/64] |= 1 << (off % 64)
		if err := builder.Add(coords, float64(rng.Intn(maxVal)+1)); err != nil {
			return nil, err
		}
	}
	return builder.Build(), nil
}

// clusteredOffset samples a cell near one of a handful of Zipf-weighted
// centers: a center is chosen per dimension from a small set, then the
// coordinate is a bounded geometric excursion from it.
func clusteredOffset(rng *rand.Rand, shape nd.Shape, coords []int) int {
	const centers = 8
	zipf := rand.NewZipf(rng, 1.3, 1, centers-1)
	for d := range coords {
		c := int(zipf.Uint64()) * shape[d] / centers
		// Geometric excursion with mean ~ extent/16.
		step := shape[d]/16 + 1
		off := c + rng.Intn(2*step+1) - step
		if off < 0 {
			off = 0
		}
		if off >= shape[d] {
			off = shape[d] - 1
		}
		coords[d] = off
	}
	return shape.Offset(coords)
}

// PaperSparsities are the three sparsity levels of Figures 7-9 (percent).
var PaperSparsities = []float64{25, 10, 5}

// Fig7Shape returns the Figure 7 dataset shape: 64^4 at full (paper) scale,
// 24^4 at test scale.
func Fig7Shape(full bool) nd.Shape {
	if full {
		return nd.MustShape(64, 64, 64, 64)
	}
	return nd.MustShape(24, 24, 24, 24)
}

// Fig8Shape returns the Figure 8/9 dataset shape: 128^4 at full scale,
// 32^4 at test scale.
func Fig8Shape(full bool) nd.Shape {
	if full {
		return nd.MustShape(128, 128, 128, 128)
	}
	return nd.MustShape(32, 32, 32, 32)
}
