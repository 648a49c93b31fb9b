package parallel

import (
	"fmt"

	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/lattice"
	"parcube/internal/nd"
	"parcube/internal/seq"
)

// TiledStats aggregates a tiled parallel build.
type TiledStats struct {
	// Tiles is the number of input tiles processed (in sequence).
	Tiles int
	// MakespanSec sums the per-tile modeled times: tiles run as
	// consecutive waves over the same machine.
	MakespanSec float64
	// CommElements sums the per-tile communication volumes. Tiling trades
	// extra communication (each tile pays its own reductions) for a
	// smaller per-processor working set — the scaling tradeoff studied in
	// the authors' follow-up work on tiling.
	CommElements int64
	// MaxPeakElements is the largest per-processor working set over all
	// tiles, the quantity tiling shrinks.
	MaxPeakElements int64
	// Updates sums accumulator updates over tiles and processors.
	Updates int64
}

// TiledResult is a finished tiled parallel build.
type TiledResult struct {
	Cube  *seq.Store
	K     []int
	Stats TiledStats
}

// BuildTiled runs the parallel construction tile by tile: the global array
// is split into tiles[d] pieces per dimension, each tile is built with the
// Figure 5 algorithm on the same simulated machine, and per-tile group-bys
// merge into the global accumulators. Use it when the Theorem 4
// per-processor bound exceeds a node's memory.
func BuildTiled(input *array.Sparse, tiles []int, opts Options) (*TiledResult, error) {
	shape := input.Shape()
	n := shape.Rank()
	if len(tiles) != n {
		return nil, fmt.Errorf("parallel: tile counts %v do not match rank %d", tiles, n)
	}
	op := opts.Op
	if op != agg.Sum && !op.Valid() {
		return nil, fmt.Errorf("parallel: invalid operator %v", op)
	}
	numTiles := 1
	for d, tc := range tiles {
		if tc < 1 || tc > shape[d] {
			return nil, fmt.Errorf("parallel: invalid tile count %d on dimension %d", tc, d)
		}
		numTiles *= tc
	}
	if opts.Fabric != nil {
		return nil, fmt.Errorf("parallel: BuildTiled manages its own fabrics")
	}

	res := &TiledResult{Cube: seq.NewStore()}
	global := make(map[lattice.DimSet]*array.Dense, 1<<uint(n))
	for mask := lattice.DimSet(0); mask < lattice.Full(n); mask++ {
		global[mask] = array.NewDense(shape.Keep(mask.Dims()), op)
	}

	grid := make([]int, n)
	var walk func(axis int) error
	walk = func(axis int) error {
		if axis < n {
			for g := 0; g < tiles[axis]; g++ {
				grid[axis] = g
				if err := walk(axis + 1); err != nil {
					return err
				}
			}
			return nil
		}
		blk, err := nd.BlockOf(shape, tiles, grid)
		if err != nil {
			return err
		}
		sub, err := input.SubBlock(blk)
		if err != nil {
			return err
		}
		tileRes, err := Build(sub, opts)
		if err != nil {
			return fmt.Errorf("parallel: tile %v: %w", grid, err)
		}
		res.K = tileRes.K
		res.Stats.MakespanSec += tileRes.Stats.MakespanSec
		res.Stats.CommElements += tileRes.Stats.MeasuredVolumeElements
		res.Stats.Updates += tileRes.Stats.Updates
		if tileRes.Stats.MaxPeakElements > res.Stats.MaxPeakElements {
			res.Stats.MaxPeakElements = tileRes.Stats.MaxPeakElements
		}
		for mask := lattice.DimSet(0); mask < lattice.Full(n); mask++ {
			part, ok := tileRes.Cube.Get(mask)
			if !ok {
				return fmt.Errorf("parallel: tile %v missing group-by %b", grid, mask)
			}
			dims := mask.Dims()
			lo := make([]int, len(dims))
			for i, d := range dims {
				lo[i] = blk.Lo[d]
			}
			global[mask].CombineAt(part, lo, op)
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
	}
	res.Stats.Tiles = numTiles
	return res, nil
}
