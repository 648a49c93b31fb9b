package seq

import (
	"fmt"
	"time"

	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/core"
	"parcube/internal/lattice"
	"parcube/internal/nd"
)

// TiledStats extends Stats with tiling-specific accounting.
type TiledStats struct {
	Stats
	// Tiles is the number of input tiles processed.
	Tiles int
	// SpillTrafficElements models the read-modify-write traffic of merging
	// per-tile partial results into the disk-resident global group-bys
	// (2 x touched elements per merge): the quantity the aggregation tree
	// minimizes by minimizing the number of tiles needed ("By having a
	// bound on the total memory requirements, the aggregation tree
	// minimizes the number of tiles that are required, therefore,
	// minimizing the total I/O traffic", Section 3).
	SpillTrafficElements int64
}

// TiledResult is a finished tiled build.
type TiledResult struct {
	Cube  *Store
	Stats TiledStats
}

// BuildTiled constructs the cube when the Theorem 1 working set exceeds
// main memory: the input is split into tiles[i] pieces along each
// dimension, each tile's sub-cube is built with the aggregation tree
// (bounding the per-tile working set), and the partial group-bys are merged
// into global accumulators modeled as disk-resident. Peak resident memory
// is the per-tile bound instead of the global one.
func BuildTiled(input *array.Sparse, tiles []int, opts Options) (*TiledResult, error) {
	shape := input.Shape()
	n := shape.Rank()
	if len(tiles) != n {
		return nil, fmt.Errorf("seq: tile counts %v do not match rank %d", tiles, n)
	}
	numTiles := 1
	for i, tc := range tiles {
		if tc < 1 || tc > shape[i] {
			return nil, fmt.Errorf("seq: invalid tile count %d on dimension %d", tc, i)
		}
		numTiles *= tc
	}
	if opts.Sink != nil {
		return nil, fmt.Errorf("seq: BuildTiled manages its own sink")
	}
	op := opts.Op
	if op != agg.Sum && !op.Valid() {
		return nil, fmt.Errorf("seq: invalid operator %v", op)
	}

	res := &TiledResult{Cube: NewStore()}
	// Global accumulators, modeled as disk-resident.
	global := make(map[lattice.DimSet]*array.Dense, 1<<uint(n))
	for mask := lattice.DimSet(0); mask < lattice.Full(n); mask++ {
		global[mask] = array.NewDense(shape.Keep(mask.Dims()), op)
	}

	start := time.Now()
	grid := make([]int, n)
	var walk func(axis int) error
	walk = func(axis int) error {
		if axis == n {
			return buildOneTile(input, shape, tiles, grid, op, opts.Ordering, global, res)
		}
		for g := 0; g < tiles[axis]; g++ {
			grid[axis] = g
			if err := walk(axis + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	for mask, a := range global {
		if err := res.Cube.WriteBack(mask, a); err != nil {
			return nil, err
		}
		res.Stats.WriteBackElements += int64(a.Size())
		res.Stats.WriteBackArrays++
	}
	res.Stats.Tiles = numTiles
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// buildOneTile runs the aggregation-tree build on one tile and merges its
// partial group-bys into the global accumulators.
func buildOneTile(input *array.Sparse, shape nd.Shape, tiles, grid []int,
	op agg.Op, ordering core.Ordering, global map[lattice.DimSet]*array.Dense, res *TiledResult) error {
	blk, err := nd.BlockOf(shape, tiles, grid)
	if err != nil {
		return err
	}
	sub, err := input.SubBlock(blk)
	if err != nil {
		return err
	}
	res.Stats.InputScans++
	merge := &mergeSink{blk: blk, op: op, global: global, res: res}
	sr, err := Build(sub, Options{Op: op, Ordering: ordering, Sink: merge})
	if err != nil {
		return err
	}
	res.Stats.Updates += sr.Stats.Updates
	res.Stats.FirstLevelUpdates += sr.Stats.FirstLevelUpdates
	if sr.Stats.PeakResultElements > res.Stats.PeakResultElements {
		res.Stats.PeakResultElements = sr.Stats.PeakResultElements
	}
	return nil
}

// mergeSink folds per-tile partial group-bys into the global accumulators.
type mergeSink struct {
	blk    nd.Block
	op     agg.Op
	global map[lattice.DimSet]*array.Dense
	res    *TiledResult
}

// WriteBack merges the tile's partial result for mask at the tile's offset.
func (m *mergeSink) WriteBack(mask lattice.DimSet, a *array.Dense) error {
	g, ok := m.global[mask]
	if !ok {
		return fmt.Errorf("seq: unexpected group-by %b from tile", mask)
	}
	dims := mask.Dims()
	lo := make([]int, len(dims))
	for i, d := range dims {
		lo[i] = m.blk.Lo[d]
	}
	g.CombineAt(a, lo, m.op)
	m.res.Stats.SpillTrafficElements += 2 * int64(a.Size())
	return nil
}
