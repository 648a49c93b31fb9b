package parallel

import (
	"math/rand"
	"reflect"
	"testing"

	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/cluster"
	"parcube/internal/comm"
	"parcube/internal/core"
	"parcube/internal/lattice"
	"parcube/internal/nd"
	"parcube/internal/seq"
	"parcube/internal/theory"
)

func randomSparse(tb testing.TB, shape nd.Shape, nnz int, seed int64) *array.Sparse {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := array.NewSparseBuilder(shape, nil)
	if err != nil {
		tb.Fatal(err)
	}
	coords := make([]int, shape.Rank())
	for i := 0; i < nnz; i++ {
		for d := range coords {
			coords[d] = rng.Intn(shape[d])
		}
		if err := b.Add(coords, float64(rng.Intn(9)+1)); err != nil {
			tb.Fatal(err)
		}
	}
	return b.Build()
}

// checkAgainstSequential verifies every group-by of a parallel result
// against the sequential engine.
func checkAgainstSequential(t *testing.T, input *array.Sparse, res *Result, op agg.Op) {
	t.Helper()
	ref, err := seq.Build(input, seq.Options{Op: op})
	if err != nil {
		t.Fatal(err)
	}
	n := input.Shape().Rank()
	if res.Cube.Len() != (1<<uint(n))-1 {
		t.Fatalf("parallel cube has %d group-bys, want %d", res.Cube.Len(), (1<<uint(n))-1)
	}
	for mask := lattice.DimSet(0); mask < lattice.Full(n); mask++ {
		got, ok := res.Cube.Get(mask)
		if !ok {
			t.Fatalf("group-by %b missing", mask)
		}
		want, _ := ref.Cube.Get(mask)
		if !got.AlmostEqual(want, 1e-9) {
			t.Fatalf("group-by %b mismatch:\n got %v\nwant %v", mask, got.Data(), want.Data())
		}
	}
}

func TestPartitionInputTiles(t *testing.T) {
	input := randomSparse(t, nd.MustShape(9, 7), 40, 3)
	grid, _ := cluster.NewGrid([]int{2, 4})
	locals, blocks, err := PartitionInput(input, grid)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for r, loc := range locals {
		total += loc.NNZ()
		if !loc.Shape().Equal(blocks[r].Shape()) {
			t.Fatalf("rank %d shapes disagree", r)
		}
	}
	if total != input.NNZ() {
		t.Fatalf("partition covers %d of %d entries", total, input.NNZ())
	}
	// Values land at the right local coordinates.
	locals[0].Iter(func(coords []int, v float64) {
		g := []int{coords[0] + blocks[0].Lo[0], coords[1] + blocks[0].Lo[1]}
		if input.At(g...) != v {
			t.Fatalf("misplaced value at %v", coords)
		}
	})
}

// blockRef is the partition reference built the slow way: the input's
// cells inside blk, at block-relative coords, through a SparseBuilder.
func blockRef(t *testing.T, input *array.Sparse, blk nd.Block) *array.Sparse {
	t.Helper()
	b, err := array.NewSparseBuilder(blk.Shape(), nil)
	if err != nil {
		t.Fatal(err)
	}
	local := make([]int, blk.Rank())
	input.Iter(func(coords []int, v float64) {
		if !blk.Contains(coords) {
			return
		}
		for d := range local {
			local[d] = coords[d] - blk.Lo[d]
		}
		if err := b.Add(local, v); err != nil {
			t.Fatal(err)
		}
	})
	return b.Build()
}

// cellSeq lists a sparse array's cells in iteration order.
func cellSeq(s *array.Sparse) (coords [][]int, vals []float64) {
	s.Iter(func(c []int, v float64) {
		coords = append(coords, append([]int(nil), c...))
		vals = append(vals, v)
	})
	return coords, vals
}

// TestPartitionInputMatchesFilteredBuilder: on a grid whose blocks sit on
// the input's chunk grid, one that cuts chunks in half, and one with
// uneven blocks, every rank's local block iterates exactly like the
// reference, and an aligned block's chunks alias the input's entries.
func TestPartitionInputMatchesFilteredBuilder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shape   nd.Shape
		parts   []int
		aligned bool
	}{
		{"aligned", nd.MustShape(64, 32, 32), []int{4, 2, 1}, true},
		{"unaligned", nd.MustShape(32, 32, 16, 16), []int{4, 2, 1, 1}, false},
		{"uneven", nd.MustShape(37, 21, 9), []int{3, 2, 2}, false},
	} {
		input := randomSparse(t, tc.shape, tc.shape.Size()/10, 71)
		grid, err := cluster.NewGrid(tc.parts)
		if err != nil {
			t.Fatal(err)
		}
		locals, blocks, err := PartitionInput(input, grid)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		inputChunks := make(map[*array.Entry]bool)
		_ = input.IterChunks(func(_ nd.Block, es []array.Entry) error {
			if len(es) > 0 {
				inputChunks[&es[0]] = true
			}
			return nil
		})
		for r, loc := range locals {
			ref := blockRef(t, input, blocks[r])
			if !loc.Shape().Equal(ref.Shape()) || loc.NNZ() != ref.NNZ() {
				t.Fatalf("%s rank %d: shape %v nnz %d, want %v %d", tc.name, r, loc.Shape(), loc.NNZ(), ref.Shape(), ref.NNZ())
			}
			gotC, gotV := cellSeq(loc)
			wantC, wantV := cellSeq(ref)
			if !reflect.DeepEqual(gotC, wantC) || !reflect.DeepEqual(gotV, wantV) {
				t.Fatalf("%s rank %d: local block iterates differently from the reference", tc.name, r)
			}
			_ = loc.IterChunks(func(_ nd.Block, es []array.Entry) error {
				if len(es) == 0 {
					return nil
				}
				if shared := inputChunks[&es[0]]; shared != tc.aligned {
					t.Errorf("%s rank %d: chunk shared = %v, want %v", tc.name, r, shared, tc.aligned)
				}
				return nil
			})
		}
	}
}

func TestPartitionInputValidation(t *testing.T) {
	input := randomSparse(t, nd.MustShape(4, 4), 5, 1)
	grid, _ := cluster.NewGrid([]int{2})
	if _, _, err := PartitionInput(input, grid); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	grid2, _ := cluster.NewGrid([]int{8, 1})
	if _, _, err := PartitionInput(input, grid2); err == nil {
		t.Fatal("over-split accepted")
	}
}

func TestBuildMatchesSequentialAcrossPartitions(t *testing.T) {
	input := randomSparse(t, nd.MustShape(8, 6, 4), 70, 17)
	for _, k := range [][]int{
		{0, 0, 0},
		{1, 0, 0},
		{0, 0, 2},
		{1, 1, 1},
		{2, 1, 0},
		{3, 0, 0},
	} {
		res, err := Build(input, Options{K: k})
		if err != nil {
			t.Fatalf("K=%v: %v", k, err)
		}
		checkAgainstSequential(t, input, res, agg.Sum)
	}
}

func TestBuildFourDimsAllOps(t *testing.T) {
	input := randomSparse(t, nd.MustShape(6, 5, 4, 3), 90, 19)
	for _, op := range []agg.Op{agg.Sum, agg.Count, agg.Max, agg.Min} {
		res, err := Build(input, Options{Op: op, K: []int{1, 1, 1, 0}})
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		checkAgainstSequential(t, input, res, op)
	}
}

func TestBuildUnevenBlocks(t *testing.T) {
	// Extents not divisible by the slice counts.
	input := randomSparse(t, nd.MustShape(7, 5, 3), 50, 23)
	res, err := Build(input, Options{K: []int{1, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSequential(t, input, res, agg.Sum)
}

func TestBuildDefaultsToGreedyPartition(t *testing.T) {
	input := randomSparse(t, nd.MustShape(8, 8, 8, 8), 100, 29)
	res, err := Build(input, Options{LogProcs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if theory.Dimensionality(res.K) != 3 {
		t.Fatalf("default partition = %v", res.K)
	}
	checkAgainstSequential(t, input, res, agg.Sum)
}

func TestMeasuredVolumeEqualsTheorem3(t *testing.T) {
	// Build already asserts this internally; verify the numbers are also
	// plausible from the outside, including uneven extents.
	input := randomSparse(t, nd.MustShape(10, 6, 4), 60, 31)
	for _, k := range [][]int{{1, 1, 0}, {2, 0, 1}, {0, 1, 1}} {
		res, err := Build(input, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.MeasuredVolumeElements != res.Stats.TheoreticalVolumeElements {
			t.Fatalf("K=%v: measured %d != theory %d", k,
				res.Stats.MeasuredVolumeElements, res.Stats.TheoreticalVolumeElements)
		}
		if res.Stats.MeasuredVolumeElements <= 0 {
			t.Fatalf("K=%v: no communication measured", k)
		}
	}
}

func TestTheorem4PerProcessorMemoryBound(t *testing.T) {
	shape := nd.MustShape(8, 8, 8)
	input := randomSparse(t, shape, 120, 37)
	k := []int{1, 1, 1}
	res, err := Build(input, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	ordering := core.SortedOrdering(shape)
	parts := theory.PartsOf(k)
	orderedSizes := ordering.Apply(shape)
	orderedParts := make([]int, len(parts))
	for j, d := range ordering {
		orderedParts[j] = parts[d]
	}
	bound := core.PerProcessorMemoryBoundElements(orderedSizes, orderedParts)
	for r, pk := range res.Stats.PerProcPeakElements {
		if pk > bound {
			t.Fatalf("rank %d peak %d exceeds Theorem 4 bound %d", r, pk, bound)
		}
	}
	if res.Stats.MaxPeakElements != bound {
		t.Fatalf("max peak %d does not attain the bound %d (divisible case is tight)",
			res.Stats.MaxPeakElements, bound)
	}
}

func TestMakespanDeterministic(t *testing.T) {
	input := randomSparse(t, nd.MustShape(8, 8, 8), 100, 41)
	opts := Options{
		K:       []int{1, 1, 1},
		Network: cluster.Cluster2003(),
		Compute: cluster.UltraII(),
	}
	first, err := Build(input, opts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		again, err := Build(input, opts)
		if err != nil {
			t.Fatal(err)
		}
		if again.Stats.MakespanSec != first.Stats.MakespanSec {
			t.Fatalf("makespan %v != %v across runs", again.Stats.MakespanSec, first.Stats.MakespanSec)
		}
	}
	if first.Stats.MakespanSec <= 0 {
		t.Fatal("zero makespan with non-trivial profiles")
	}
}

func TestHigherDimPartitionWinsOnVolumeAndTime(t *testing.T) {
	// The Figure 7 claim at test scale: on 8 processors over an equal 4-D
	// array, 3-D partitioning moves less data and finishes sooner than 2-D,
	// which beats 1-D.
	shape := nd.MustShape(16, 16, 16, 16)
	input := randomSparse(t, shape, 800, 43)
	opts := func(k []int) Options {
		return Options{K: k, Network: cluster.Cluster2003(), Compute: cluster.UltraII()}
	}
	r3, err := Build(input, opts([]int{1, 1, 1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Build(input, opts([]int{2, 1, 0, 0}))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Build(input, opts([]int{3, 0, 0, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if !(r3.Stats.MeasuredVolumeElements < r2.Stats.MeasuredVolumeElements &&
		r2.Stats.MeasuredVolumeElements < r1.Stats.MeasuredVolumeElements) {
		t.Fatalf("volumes: 3d=%d 2d=%d 1d=%d", r3.Stats.MeasuredVolumeElements,
			r2.Stats.MeasuredVolumeElements, r1.Stats.MeasuredVolumeElements)
	}
	if !(r3.Stats.MakespanSec < r2.Stats.MakespanSec && r2.Stats.MakespanSec < r1.Stats.MakespanSec) {
		t.Fatalf("makespans: 3d=%v 2d=%v 1d=%v", r3.Stats.MakespanSec,
			r2.Stats.MakespanSec, r1.Stats.MakespanSec)
	}
}

func TestFlatGatherSameVolumeDifferentClock(t *testing.T) {
	// Both algorithms move identical volume (the Lemma 1 count); their
	// makespans differ. In a bandwidth-dominated regime (all cuts on one
	// dimension -> an 8-way group, negligible latency) the binomial tree
	// pipelines transfers across links and must win over the flat gather,
	// whose root link serializes all seven slabs.
	input := randomSparse(t, nd.MustShape(16, 16, 16), 200, 47)
	opts := Options{
		K:       []int{3, 0, 0},
		Network: cluster.NetworkProfile{LatencySec: 1e-9, BandwidthBytesPerSec: 50e6},
		Compute: cluster.UltraII(),
	}
	bin, err := Build(input, opts)
	if err != nil {
		t.Fatal(err)
	}
	optsFlat := opts
	optsFlat.Reduce = comm.FlatGather
	flat, err := Build(input, optsFlat)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSequential(t, input, flat, agg.Sum)
	if bin.Stats.MeasuredVolumeElements != flat.Stats.MeasuredVolumeElements {
		t.Fatalf("volumes differ: %d vs %d", bin.Stats.MeasuredVolumeElements, flat.Stats.MeasuredVolumeElements)
	}
	if bin.Stats.MakespanSec >= flat.Stats.MakespanSec {
		t.Fatalf("binomial (%v) not faster than flat gather (%v) in bandwidth-dominated regime",
			bin.Stats.MakespanSec, flat.Stats.MakespanSec)
	}
}

func TestBuildOverTCPFabric(t *testing.T) {
	input := randomSparse(t, nd.MustShape(6, 6, 6), 60, 53)
	fab, err := comm.NewTCPFabric(8)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	res, err := Build(input, Options{K: []int{1, 1, 1}, Fabric: fab})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSequential(t, input, res, agg.Sum)
}

func TestBuildValidation(t *testing.T) {
	input := randomSparse(t, nd.MustShape(4, 4), 5, 59)
	if _, err := Build(input, Options{K: []int{1}}); err == nil {
		t.Fatal("short K accepted")
	}
	if _, err := Build(input, Options{Ordering: core.Ordering{0, 0}}); err == nil {
		t.Fatal("bad ordering accepted")
	}
	if _, err := Build(input, Options{LogProcs: 20}); err == nil {
		t.Fatal("infeasible processor count accepted")
	}
}

func TestSingleProcessorMatchesSequentialStats(t *testing.T) {
	input := randomSparse(t, nd.MustShape(6, 5, 4), 40, 61)
	res, err := Build(input, Options{K: []int{0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSequential(t, input, res, agg.Sum)
	if res.Stats.MeasuredVolumeElements != 0 {
		t.Fatalf("single processor communicated %d elements", res.Stats.MeasuredVolumeElements)
	}
	ref, _ := seq.Build(input, seq.Options{})
	if res.Stats.Updates != ref.Stats.Updates {
		t.Fatalf("updates %d != sequential %d", res.Stats.Updates, ref.Stats.Updates)
	}
}

func TestNonSortedOrderingStillCorrect(t *testing.T) {
	input := randomSparse(t, nd.MustShape(8, 6, 4), 50, 67)
	res, err := Build(input, Options{Ordering: core.Ordering{2, 0, 1}, K: []int{1, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSequential(t, input, res, agg.Sum)
}

func TestBuildFiveDims(t *testing.T) {
	input := randomSparse(t, nd.MustShape(6, 5, 4, 3, 2), 120, 101)
	res, err := Build(input, Options{K: []int{1, 1, 0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSequential(t, input, res, agg.Sum)
	if res.Cube.Len() != 31 {
		t.Fatalf("5-D cube has %d group-bys", res.Cube.Len())
	}
}

func TestBuildCountUnevenBlocks(t *testing.T) {
	input := randomSparse(t, nd.MustShape(9, 7, 5), 80, 103)
	res, err := Build(input, Options{Op: agg.Count, K: []int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSequential(t, input, res, agg.Count)
}

func TestBuildDeepOneDimensionalPartition(t *testing.T) {
	// All 16 processors along one dimension: a 16-way reduction group.
	input := randomSparse(t, nd.MustShape(32, 4, 4), 150, 107)
	res, err := Build(input, Options{K: []int{4, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSequential(t, input, res, agg.Sum)
}

func TestReplicatedBuildDoublesVolume(t *testing.T) {
	input := randomSparse(t, nd.MustShape(8, 8, 8), 120, 109)
	plain, err := Build(input, Options{K: []int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	repl, err := Build(input, Options{K: []int{1, 1, 1}, Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSequential(t, input, repl, agg.Sum)
	if repl.Stats.MeasuredVolumeElements != 2*plain.Stats.MeasuredVolumeElements {
		t.Fatalf("replicated volume %d != 2 x %d",
			repl.Stats.MeasuredVolumeElements, plain.Stats.MeasuredVolumeElements)
	}
	if repl.Stats.MeasuredVolumeElements != repl.Stats.TheoreticalVolumeElements {
		t.Fatalf("replicated volume %d != prediction %d",
			repl.Stats.MeasuredVolumeElements, repl.Stats.TheoreticalVolumeElements)
	}
}

func TestReplicatedBuildMaxOperator(t *testing.T) {
	input := randomSparse(t, nd.MustShape(6, 6, 6), 50, 113)
	repl, err := Build(input, Options{K: []int{1, 1, 0}, Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSequential(t, input, repl, agg.Sum)
	_ = repl
}
