package array

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"parcube/internal/nd"
)

// mapBuilder is the map-per-chunk builder the sort-once SparseBuilder
// replaced, kept as the reference it must match bit for bit: every cell
// summed from 0 in insertion order, every chunk sorted by offset.
type mapBuilder struct {
	s     *Sparse
	cells []map[uint32]float64
}

func newMapBuilder(t testing.TB, shape, chunkSides nd.Shape) *mapBuilder {
	t.Helper()
	s, err := newEmptySparse(shape, chunkSides)
	if err != nil {
		t.Fatal(err)
	}
	return &mapBuilder{s: s, cells: make([]map[uint32]float64, len(s.chunks))}
}

func (b *mapBuilder) Add(coords []int, v float64) {
	gidx := 0
	for i, c := range coords {
		gidx = gidx*b.s.grid[i] + c/b.s.chunkSides[i]
	}
	blk := b.s.chunks[gidx].Block
	off := 0
	for i, c := range coords {
		off = off*(blk.Hi[i]-blk.Lo[i]) + (c - blk.Lo[i])
	}
	m := b.cells[gidx]
	if m == nil {
		m = make(map[uint32]float64)
		b.cells[gidx] = m
	}
	m[uint32(off)] += v
}

func (b *mapBuilder) Build() *Sparse {
	for gidx, m := range b.cells {
		if len(m) == 0 {
			continue
		}
		entries := make([]Entry, 0, len(m))
		for off, v := range m {
			entries = append(entries, Entry{Off: off, Val: v})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Off < entries[j].Off })
		b.s.chunks[gidx].Entries = entries
		b.s.nnz += len(entries)
	}
	return b.s
}

// requireBitIdentical fails unless got and want have the same geometry,
// NNZ, chunk bounds and, per chunk, the same offsets and value bits.
func requireBitIdentical(t *testing.T, got, want *Sparse) {
	t.Helper()
	if !got.shape.Equal(want.shape) || !got.chunkSides.Equal(want.chunkSides) || !got.grid.Equal(want.grid) {
		t.Fatalf("geometry %v/%v/%v, want %v/%v/%v", got.shape, got.chunkSides, got.grid,
			want.shape, want.chunkSides, want.grid)
	}
	if got.NNZ() != want.NNZ() || len(got.chunks) != len(want.chunks) {
		t.Fatalf("NNZ %d over %d chunks, want %d over %d", got.NNZ(), len(got.chunks), want.NNZ(), len(want.chunks))
	}
	for g := range got.chunks {
		gc, wc := got.chunks[g], want.chunks[g]
		if !nd.Shape(gc.Block.Lo).Equal(wc.Block.Lo) || !nd.Shape(gc.Block.Hi).Equal(wc.Block.Hi) {
			t.Fatalf("chunk %d bounds %v, want %v", g, gc.Block, wc.Block)
		}
		if len(gc.Entries) != len(wc.Entries) {
			t.Fatalf("chunk %d: %d entries, want %d", g, len(gc.Entries), len(wc.Entries))
		}
		if cap(gc.Entries) != len(gc.Entries) {
			t.Fatalf("chunk %d: capacity %d past length %d", g, cap(gc.Entries), len(gc.Entries))
		}
		for i, e := range gc.Entries {
			w := wc.Entries[i]
			if e.Off != w.Off || math.Float64bits(e.Val) != math.Float64bits(w.Val) {
				t.Fatalf("chunk %d entry %d: (%d, %#x), want (%d, %#x)", g, i,
					e.Off, math.Float64bits(e.Val), w.Off, math.Float64bits(w.Val))
			}
		}
	}
}

// TestBuilderMatchesMapBuilder feeds the same cells, in several orders,
// to SparseBuilder and to the map reference and compares the results bit
// for bit, over ranks 1-5, extent-1 axes, chunk side 1 and chunk sides
// past the extent, with duplicates, -0, NaN and non-integer values.
func TestBuilderMatchesMapBuilder(t *testing.T) {
	geoms := []struct{ shape, sides nd.Shape }{
		{nd.MustShape(37), nil},
		{nd.MustShape(300), nd.MustShape(256)},
		{nd.MustShape(9, 7), nd.MustShape(4, 3)},
		{nd.MustShape(5, 1, 6), nd.MustShape(1, 1, 1)},
		{nd.MustShape(6, 5, 4), nd.MustShape(10, 2, 9)},
		{nd.MustShape(20, 18, 3, 7), nil},
		{nd.MustShape(1, 8, 1, 9), nd.MustShape(3, 3, 3, 3)},
		{nd.MustShape(4, 3, 5, 2, 3), nd.MustShape(2, 2, 2, 2, 2)},
	}
	orders := []string{"ascending", "reversed", "random", "ascending+tail"}
	rng := rand.New(rand.NewSource(46))
	for _, gm := range geoms {
		for _, order := range orders {
			for trial := 0; trial < 3; trial++ {
				cells := builderCells(rng, gm.shape, gm.sides, order)
				ref := newMapBuilder(t, gm.shape, gm.sides)
				b, err := NewSparseBuilder(gm.shape, gm.sides)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range cells {
					ref.Add(c.coords, c.v)
					if err := b.Add(c.coords, c.v); err != nil {
						t.Fatal(err)
					}
				}
				requireBitIdentical(t, b.Build(), ref.Build())
			}
		}
	}
}

type builderCell struct {
	coords []int
	v      float64
}

// builderCells draws a cell list in the given order. Values mix small
// integers, fractions whose sums depend on order, -0 and NaN; about a
// quarter of the cells repeat an earlier coordinate.
func builderCells(rng *rand.Rand, shape, sides nd.Shape, order string) []builderCell {
	size := shape.Size()
	n := 1 + rng.Intn(2*size)
	value := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			if rng.Intn(4) == 0 {
				return math.NaN()
			}
			return 0.1 * float64(rng.Intn(7)+1)
		case 2:
			return rng.NormFloat64() * 1e6
		default:
			return float64(rng.Intn(9) + 1)
		}
	}
	cell := func(off int) builderCell {
		c := make([]int, shape.Rank())
		shape.Coords(off, c)
		return builderCell{coords: c, v: value()}
	}
	cells := make([]builderCell, 0, n)
	for len(cells) < n {
		cells = append(cells, cell(rng.Intn(size)))
	}
	// Storage order: chunk-major, then offset within the chunk, then
	// insertion order for repeats of one cell.
	s, _ := newEmptySparse(shape, sides)
	key := func(c builderCell) (int, int) {
		g := 0
		for i, x := range c.coords {
			g = g*s.grid[i] + x/s.chunkSides[i]
		}
		return g, s.chunks[g].Block.Shape().Offset(localCoords(c.coords, s.chunks[g].Block))
	}
	storage := func(cs []builderCell) {
		sort.SliceStable(cs, func(i, j int) bool {
			gi, oi := key(cs[i])
			gj, oj := key(cs[j])
			return gi < gj || gi == gj && oi < oj
		})
	}
	switch order {
	case "ascending":
		storage(cells)
	case "reversed":
		storage(cells)
		for i, j := 0, len(cells)-1; i < j; i, j = i+1, j-1 {
			cells[i], cells[j] = cells[j], cells[i]
		}
	case "ascending+tail":
		cut := len(cells) - 1 - rng.Intn(1+len(cells)/8)
		storage(cells[:cut])
	}
	return cells
}

func localCoords(coords []int, b nd.Block) []int {
	l := make([]int, len(coords))
	for i, c := range coords {
		l[i] = c - b.Lo[i]
	}
	return l
}

// TestBuilderAdoptsSortedChunks checks the in-order path: a chunk added
// strictly ascending keeps its storage unless append left it more than
// an eighth unused, a lone -0 is stored as +0, and the stored slice's
// capacity is clipped so a caller cannot append into a neighbour's
// storage.
func TestBuilderAdoptsSortedChunks(t *testing.T) {
	for _, n := range []int{4, 5} { // append capacity 4 and 8
		b, err := NewSparseBuilder(nd.MustShape(8, 8), nd.MustShape(8, 8))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := b.Add([]int{i, i}, []float64{1, math.Copysign(0, -1), 2.5}[i%3]); err != nil {
				t.Fatal(err)
			}
		}
		added := &b.s.chunks[0].Entries[0]
		s := b.Build()
		es := s.chunks[0].Entries
		if kept := &es[0] == added; kept != (n == 4) {
			t.Errorf("%d entries: storage kept = %v", n, kept)
		}
		if math.Signbit(es[1].Val) {
			t.Error("a lone -0 was stored as -0")
		}
		if cap(es) != len(es) || s.NNZ() != n {
			t.Errorf("cap %d len %d nnz %d", cap(es), len(es), s.NNZ())
		}
	}
}

// TestReserveKeepsMergeExact re-adds an array in storage order into a
// builder reserved for it, plus a few delta cells, as an Update's merge
// does, and checks the result against the map reference bit for bit.
func TestReserveKeepsMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	shape := nd.MustShape(20, 18, 3, 7)
	base := newMapBuilder(t, shape, nil)
	for _, c := range builderCells(rng, shape, nil, "random") {
		base.Add(c.coords, c.v)
	}
	a := base.Build()
	ref := newMapBuilder(t, shape, nil)
	b, err := NewSparseBuilder(shape, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Reserve(a)
	add := func(coords []int, v float64) {
		ref.Add(coords, v)
		if err := b.Add(coords, v); err != nil {
			t.Fatal(err)
		}
	}
	a.Iter(add)
	for _, c := range builderCells(rng, shape, nil, "random")[:5] {
		add(c.coords, c.v)
	}
	requireBitIdentical(t, b.Build(), ref.Build())
}
