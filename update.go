package parcube

import (
	"errors"
	"fmt"

	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/lattice"
	"parcube/internal/seq"
)

// ErrOverlappingDelta reports a Count/Max/Min delta touching a cell that
// already holds a fact: the old contribution cannot be retracted from a
// max/min/count without a rebuild, so Update rejects the delta. The
// error is typed so callers — the shard WAL apply path above all — can
// branch on it with errors.Is and refuse to log a delta that will never
// apply, instead of string-matching a message.
var ErrOverlappingDelta = errors.New("parcube: delta overlaps previously populated cells")

// UpdateStats reports an incremental cube maintenance step.
type UpdateStats struct {
	// DeltaCells is the number of distinct cells in the applied delta.
	DeltaCells int
	// Updates is the number of aggregation updates performed for the
	// delta sub-cube (orders of magnitude below a full rebuild when the
	// delta is small).
	Updates int64
}

// Update applies newly arrived facts to an existing cube without
// rebuilding it: a sub-cube is constructed from the delta alone (one pass,
// aggregation tree) and combined into every stored group-by.
//
// This is algebraically exact for Sum and for Count/Max/Min whenever the
// delta touches only cells that were previously empty; for those operators
// Update verifies disjointness and rejects overlapping deltas, because a
// changed cell's old contribution cannot be retracted from a max/min/count
// without a rebuild.
func (c *Cube) Update(delta *Dataset) (*UpdateStats, error) {
	if delta.schema.Dims() != c.schema.Dims() {
		return nil, fmt.Errorf("parcube: delta schema has %d dimensions, cube has %d",
			delta.schema.Dims(), c.schema.Dims())
	}
	for i, name := range c.schema.names {
		if delta.schema.names[i] != name || delta.schema.shape[i] != c.schema.shape[i] {
			return nil, fmt.Errorf("parcube: delta schema differs at dimension %d", i)
		}
	}
	deltaSparse := delta.freeze()
	if deltaSparse.NNZ() == 0 {
		return &UpdateStats{}, nil
	}

	if c.op != agg.Sum {
		overlap := false
		deltaSparse.Iter(func(coords []int, _ float64) {
			if !overlap && c.input.At(coords...) != 0 {
				overlap = true
			}
		})
		if overlap {
			return nil, fmt.Errorf("%w: %v cubes only support deltas on previously empty cells; rebuild instead", ErrOverlappingDelta, c.op)
		}
	}

	res, err := seq.Build(deltaSparse, seq.Options{Op: c.op})
	if err != nil {
		return nil, err
	}
	for mask := lattice.DimSet(0); mask < lattice.Full(c.schema.Dims()); mask++ {
		existing, ok := c.store.Get(mask)
		if !ok {
			return nil, fmt.Errorf("parcube: group-by %b missing from cube", mask)
		}
		part, ok := res.Cube.Get(mask)
		if !ok {
			return nil, fmt.Errorf("parcube: group-by %b missing from delta", mask)
		}
		existing.Combine(part, c.op)
	}
	// Merge the delta into the stored input so full-mask queries stay
	// consistent.
	merged, err := mergeSparse(c.input, deltaSparse)
	if err != nil {
		return nil, err
	}
	c.input = merged
	return &UpdateStats{DeltaCells: deltaSparse.NNZ(), Updates: res.Stats.Updates}, nil
}

// mergeSparse sums two sparse arrays cell-wise (fact-table semantics).
func mergeSparse(a, b *array.Sparse) (*array.Sparse, error) {
	builder, err := array.NewSparseBuilder(a.Shape(), nil)
	if err != nil {
		return nil, err
	}
	builder.Reserve(a)
	var addErr error
	add := func(coords []int, v float64) {
		if addErr == nil {
			addErr = builder.Add(coords, v)
		}
	}
	a.Iter(add)
	b.Iter(add)
	if addErr != nil {
		return nil, addErr
	}
	return builder.Build(), nil
}
