package array

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"parcube/internal/agg"
	"parcube/internal/nd"
)

// benchDense builds a deterministic dense 3-D array.
func benchDense(b *testing.B, shape nd.Shape) *Dense {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, shape.Size())
	for i := range vals {
		vals[i] = float64(rng.Intn(100))
	}
	d, err := FromValues(shape, vals)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkScanThreeChildren measures the multi-way kernel: one pass over a
// 64^3 parent updating all three children simultaneously.
func BenchmarkScanThreeChildren(b *testing.B) {
	shape := nd.MustShape(64, 64, 64)
	parent := benchDense(b, shape)
	targets := []Target{
		{Child: NewDense(shape.Drop(0), agg.Sum), DropAxis: 0},
		{Child: NewDense(shape.Drop(1), agg.Sum), DropAxis: 1},
		{Child: NewDense(shape.Drop(2), agg.Sum), DropAxis: 2},
	}
	b.ReportAllocs()
	b.SetBytes(int64(shape.Size()) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Scan(parent, targets, agg.Sum, agg.FoldPartial)
	}
}

// BenchmarkScanSingleChild is the one-target comparison point: three
// separate passes would cost 3x this, which is what the simultaneous scan
// saves in memory traffic.
func BenchmarkScanSingleChild(b *testing.B) {
	shape := nd.MustShape(64, 64, 64)
	parent := benchDense(b, shape)
	targets := []Target{{Child: NewDense(shape.Drop(0), agg.Sum), DropAxis: 0}}
	b.ReportAllocs()
	b.SetBytes(int64(shape.Size()) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Scan(parent, targets, agg.Sum, agg.FoldPartial)
	}
}

// BenchmarkScanSparse measures the sparse first-level kernel at 10%
// density.
func BenchmarkScanSparse(b *testing.B) {
	shape := nd.MustShape(64, 64, 64)
	rng := rand.New(rand.NewSource(2))
	builder, _ := NewSparseBuilder(shape, nil)
	for i := 0; i < shape.Size()/10; i++ {
		_ = builder.Add([]int{rng.Intn(64), rng.Intn(64), rng.Intn(64)}, 1)
	}
	sp := builder.Build()
	targets := []Target{
		{Child: NewDense(shape.Drop(0), agg.Sum), DropAxis: 0},
		{Child: NewDense(shape.Drop(1), agg.Sum), DropAxis: 1},
		{Child: NewDense(shape.Drop(2), agg.Sum), DropAxis: 2},
	}
	// As in sparse4D: no collection of the builder's garbage may empty the
	// scratch pool inside the timed loop.
	runtime.GC()
	ScanSparse(sp, targets, agg.Sum, agg.FoldInput)
	b.ReportAllocs()
	b.SetBytes(int64(sp.NNZ()) * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanSparse(sp, targets, agg.Sum, agg.FoldInput)
	}
}

// sparse4DInput is the build workload's geometry: a 64x64x32x32 array
// about 10% full in 16^4 chunks. It is built once per process; every
// benchmark that reads it gets fresh targets.
var sparse4DInput struct {
	once sync.Once
	sp   *Sparse
	err  error
}

// sparse4D returns the shared 4-D input with the four first-level
// children as targets.
func sparse4D(b *testing.B) (*Sparse, []Target) {
	b.Helper()
	in := &sparse4DInput
	in.once.Do(func() {
		shape := nd.MustShape(64, 64, 32, 32)
		rng := rand.New(rand.NewSource(3))
		builder, err := NewSparseBuilder(shape, nil)
		if err != nil {
			in.err = err
			return
		}
		coords := make([]int, shape.Rank())
		for i := 0; i < shape.Size()/10; i++ {
			for a := range coords {
				coords[a] = rng.Intn(shape[a])
			}
			if err := builder.Add(coords, float64(rng.Intn(100))); err != nil {
				in.err = err
				return
			}
		}
		in.sp = builder.Build()
	})
	if in.err != nil {
		b.Fatal(in.err)
	}
	sp := in.sp
	shape := sp.Shape()
	targets := make([]Target, shape.Rank())
	for a := range targets {
		targets[a] = Target{Child: NewDense(shape.Drop(a), agg.Sum), DropAxis: a}
	}
	// Collect the builder's garbage and warm the kernel's scratch pool
	// before the timer starts, so B/op shows only what a scan allocates.
	runtime.GC()
	ScanSparse(sp, targets, agg.Sum, agg.FoldInput)
	return sp, targets
}

// BenchmarkScanSparse4D measures the sparse first-level kernel at the
// build workload's geometry: four targets, one pass over every chunk.
func BenchmarkScanSparse4D(b *testing.B) {
	sp, targets := sparse4D(b)
	b.ReportAllocs()
	b.SetBytes(int64(sp.NNZ()) * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanSparse(sp, targets, agg.Sum, agg.FoldInput)
	}
}

// BenchmarkScanSparse4DRoofline is the streaming bound for
// BenchmarkScanSparse4D on the same entries: every entry is read and every
// update is one read-modify-write at an offset decoded before the timer
// starts. The kernel's cost over this row is what computing offsets
// costs; scripts/bench_regress.sh gates the ratio of the two.
func BenchmarkScanSparse4DRoofline(b *testing.B) {
	sp, targets := sparse4D(b)
	pre := sparse4DOffsets(sp)
	b.ReportAllocs()
	b.SetBytes(int64(sp.NNZ()) * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, co := range pre {
			for c, t := range targets {
				dst, offs := t.Child.data, co.offs[c][:len(co.entries)]
				for j, e := range co.entries {
					dst[offs[j]] += e.Val
				}
			}
		}
	}
}

// chunkOffs is one non-empty chunk of the 4-D input with, per target
// (target c drops axis c), each entry's child offset.
type chunkOffs struct {
	entries []Entry
	offs    [][]int
}

var sparse4DRoofline struct {
	once sync.Once
	pre  []chunkOffs
}

// sparse4DOffsets decodes the child offsets of every entry of the shared
// 4-D input once per process.
func sparse4DOffsets(sp *Sparse) []chunkOffs {
	r := &sparse4DRoofline
	r.once.Do(func() {
		shape := sp.Shape()
		local := make([]int, shape.Rank())
		for _, ch := range sp.chunks {
			if len(ch.Entries) == 0 {
				continue
			}
			co := chunkOffs{entries: ch.Entries, offs: make([][]int, shape.Rank())}
			cshape := ch.Block.Shape()
			for c := range co.offs {
				st := make([]int, shape.Rank())
				fillChildStrides(st, shape, c)
				co.offs[c] = make([]int, len(ch.Entries))
				for i, e := range ch.Entries {
					cshape.Coords(int(e.Off), local)
					for a := range local {
						co.offs[c][i] += (ch.Block.Lo[a] + local[a]) * st[a]
					}
				}
			}
			r.pre = append(r.pre, co)
		}
		// Collect the decoding's garbage before any timer starts.
		runtime.GC()
	})
	return r.pre
}

// BenchmarkAggregateAlong measures the single-axis dense collapse.
func BenchmarkAggregateAlong(b *testing.B) {
	d := benchDense(b, nd.MustShape(128, 128, 16))
	b.ReportAllocs()
	b.SetBytes(int64(d.Size()) * 8)
	for i := 0; i < b.N; i++ {
		d.AggregateAlong(1, agg.Sum)
	}
}

// BenchmarkCombineAt measures slab placement (the assembly path).
func BenchmarkCombineAt(b *testing.B) {
	dst := NewDense(nd.MustShape(128, 128), agg.Sum)
	src := benchDense(b, nd.MustShape(64, 64))
	b.ReportAllocs()
	b.SetBytes(int64(src.Size()) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.CombineAt(src, []int{32, 32}, agg.Sum)
	}
}

// BenchmarkSparseBuilder measures loading an input through SparseBuilder
// at the build workload's geometry (64x64x32x32, 16^4 chunks):
//
//   - random: 10% of the cells (419430 distinct facts) added in random
//     order, so every chunk takes the sort path;
//   - merge: what an Update's input merge does, a 25000-fact array
//     re-added in storage order into a builder reserved for it, plus one
//     delta row, so every chunk but one is kept as it is.
func BenchmarkSparseBuilder(b *testing.B) {
	shape := nd.MustShape(64, 64, 32, 32)
	rank := shape.Rank()
	rng := rand.New(rand.NewSource(25))
	draw := func(n int) ([]int, []float64) {
		taken := make([]bool, shape.Size())
		coords, vals := make([]int, n*rank), make([]float64, 0, n)
		for len(vals) < n {
			off := rng.Intn(shape.Size())
			if taken[off] {
				continue
			}
			taken[off] = true
			shape.Coords(off, coords[len(vals)*rank:(len(vals)+1)*rank])
			vals = append(vals, float64(rng.Intn(10)+1))
		}
		return coords, vals
	}
	load := func(b *testing.B, coords []int, vals []float64) *SparseBuilder {
		sb, err := NewSparseBuilder(shape, nil)
		if err != nil {
			b.Fatal(err)
		}
		for i, v := range vals {
			if err := sb.Add(coords[i*rank:(i+1)*rank], v); err != nil {
				b.Fatal(err)
			}
		}
		return sb
	}
	b.Run("random", func(b *testing.B) {
		coords, vals := draw(shape.Size() / 10)
		runtime.GC()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			load(b, coords, vals).Build()
		}
	})
	b.Run("merge", func(b *testing.B) {
		coords, vals := draw(25000)
		base := load(b, coords, vals).Build()
		row := []int{5, 9, 17, 30}
		runtime.GC()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sb, err := NewSparseBuilder(shape, nil)
			if err != nil {
				b.Fatal(err)
			}
			sb.Reserve(base)
			base.Iter(func(c []int, v float64) {
				if err := sb.Add(c, v); err != nil {
					b.Fatal(err)
				}
			})
			if err := sb.Add(row, 1); err != nil {
				b.Fatal(err)
			}
			sb.Build()
		}
	})
}
