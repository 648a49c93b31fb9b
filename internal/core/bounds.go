package core

import "parcube/internal/nd"

// MemoryBoundElements returns the Theorem 1 bound on the number of result
// elements simultaneously held in memory during sequential construction
// with the aggregation tree: the total size of the first-level children,
// sum_{i} prod_{j != i} D_j. Sizes are in position space (already ordered).
//
// Theorem 2 proves the same quantity is a lower bound for any spanning-tree
// algorithm with maximal cache/memory reuse and no partial write-backs, so
// this is simultaneously the guarantee and the floor.
func MemoryBoundElements(sizes nd.Shape) int64 {
	var total int64
	for i := range sizes {
		prod := int64(1)
		for j := range sizes {
			if j != i {
				prod *= int64(sizes[j])
			}
		}
		total += prod
	}
	return total
}

// SequentialUpdates returns the accumulator updates of the sequential
// aggregation-tree build (Figure 3) over nnz stored cells, without
// running it. The root's scan folds every stored cell into each of its n
// children, and every other interior node is scanned densely once, one
// update per cell per child:
//
//	nnz * n + sum over non-root interior nodes v of |v| * |children(v)|
//
// Sizes are in position space (already ordered); the prefix node whose
// largest dropped position is j has the n-1-j children j+1..n-1.
func SequentialUpdates(sizes nd.Shape, nnz int64) int64 {
	n := sizes.Rank()
	total := nnz * int64(n)
	// walk visits the node that last dropped position j and retains cells
	// cells, then its children.
	var walk func(j int, cells int64)
	walk = func(j int, cells int64) {
		total += cells * int64(n-1-j)
		for c := j + 1; c < n; c++ {
			walk(c, cells/int64(sizes[c]))
		}
	}
	full := int64(sizes.Size())
	for j := 0; j < n; j++ {
		walk(j, full/int64(sizes[j]))
	}
	return total
}

// PerProcessorMemoryBoundElements returns the Theorem 4 bound on result
// elements held by any single processor during parallel construction, when
// dimension j is block-partitioned into parts[j] pieces: the first-level
// children of the processor's local block, sum_i prod_{j != i}
// ceil(D_j / parts_j). With the paper's power-of-two divisible partitions
// this is exactly sum_i prod_{j != i} D_j / 2^{k_j}; the ceiling makes the
// bound valid for uneven blocks too.
func PerProcessorMemoryBoundElements(sizes nd.Shape, parts []int) int64 {
	var total int64
	for i := range sizes {
		prod := int64(1)
		for j := range sizes {
			if j != i {
				d := (sizes[j] + parts[j] - 1) / parts[j]
				prod *= int64(d)
			}
		}
		total += prod
	}
	return total
}
