package parallel

import (
	"fmt"
	"testing"

	"parcube/internal/cluster"
	"parcube/internal/nd"
)

// BenchmarkParallelBuild measures the full simulated parallel construction
// (partitioning, local scans, reductions, assembly) at several machine
// sizes over a fixed 4-D input.
func BenchmarkParallelBuild(b *testing.B) {
	input := randomSparse(b, nd.MustShape(24, 24, 24, 24), 30000, 1)
	for _, logP := range []int{0, 2, 3, 4} {
		b.Run(fmt.Sprintf("procs=%d", 1<<uint(logP)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(input, Options{
					LogProcs: logP,
					Network:  cluster.Cluster2003(),
					Compute:  cluster.UltraII(),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartitionInput measures the single-pass input split of a 32^3
// array over 8 processors. On the aligned 2x2x2 grid every 16^3 block is
// one input chunk, shared as is; on the 4x2x2 grid the 8-wide blocks cut
// every chunk in half, so every entry is routed. Neither may allocate
// per entry: scripts/alloc_budget.json holds aligned to a constant and
// unaligned to O(ranks x chunks).
func BenchmarkPartitionInput(b *testing.B) {
	input := randomSparse(b, nd.MustShape(32, 32, 32), 50000, 2)
	for _, tc := range []struct {
		name  string
		parts []int
	}{
		{"aligned", []int{2, 2, 2}},
		{"unaligned", []int{4, 2, 2}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			grid, err := cluster.NewGrid(tc.parts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(input.NNZ()) * 12)
			for i := 0; i < b.N; i++ {
				if _, _, err := PartitionInput(input, grid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
