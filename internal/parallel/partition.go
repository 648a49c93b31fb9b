// Package parallel implements the paper's parallel data cube construction
// algorithm (Figure 5) on the simulated shared-nothing machine: the initial
// array is block-partitioned over a processor grid, every processor locally
// aggregates all children of each aggregation-tree node in one scan, and
// group-bys are finalized by reductions onto the lead processors along the
// aggregated dimension, recursing on the lead sub-grid. Communication
// volume is measured at the transport and must equal the Lemma 1 / Theorem
// 3 prediction exactly.
package parallel

import (
	"fmt"

	"parcube/internal/array"
	"parcube/internal/cluster"
	"parcube/internal/nd"
)

// PartitionInput splits the initial sparse array into one local sparse
// block per processor rank of the grid, in a single pass over the input's
// chunks (array.Sparse.Split). Local blocks use block-relative
// coordinates. An input chunk that is also a chunk of its processor's
// block is shared, not copied; the local blocks alias the input.
func PartitionInput(input *array.Sparse, grid *cluster.Grid) ([]*array.Sparse, []nd.Block, error) {
	shape := input.Shape()
	parts := grid.Parts()
	if len(parts) != shape.Rank() {
		return nil, nil, fmt.Errorf("parallel: grid rank %d does not match array rank %d", len(parts), shape.Rank())
	}
	for d, p := range parts {
		if p > shape[d] {
			return nil, nil, fmt.Errorf("parallel: %d slices exceed extent %d on dimension %d", p, shape[d], d)
		}
	}
	blocks := make([]nd.Block, grid.Size())
	label := make([]int, shape.Rank())
	for r := range blocks {
		grid.Label(r, label)
		blk, err := nd.BlockOf(shape, parts, label)
		if err != nil {
			return nil, nil, err
		}
		blocks[r] = blk
	}
	locals, err := input.Split(blocks)
	if err != nil {
		return nil, nil, err
	}
	return locals, blocks, nil
}
