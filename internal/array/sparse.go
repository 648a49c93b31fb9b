package array

import (
	"fmt"
	"sort"

	"parcube/internal/agg"
	"parcube/internal/nd"
)

// Entry is one stored element of a sparse chunk: its row-major offset
// within the chunk plus its value. This is the chunk-offset compression the
// paper uses for initial arrays: "along with each non-zero element, its
// offset within the chunk is also stored".
type Entry struct {
	Off uint32
	Val float64
}

// entryBytes is the stored size of one entry (4-byte offset + 8-byte value).
const entryBytes = 12

// Chunk is one axis-aligned piece of a sparse array with its stored entries
// ordered by offset.
type Chunk struct {
	Block   nd.Block // global region the chunk covers
	Entries []Entry  // sorted by Off; Off is relative to Block's own shape
}

// Sparse is an n-dimensional sparse array stored as a grid of chunks with
// chunk-offset compression. Only non-zero elements are stored; reading an
// absent element yields zero. A Sparse is immutable once built, which is
// what lets the arrays Split makes share its chunks' entries.
type Sparse struct {
	shape      nd.Shape
	chunkSides nd.Shape // requested chunk extent along each axis
	grid       nd.Shape // number of chunks along each axis
	chunks     []Chunk  // row-major over grid; empty chunks have nil Entries
	nnz        int
}

// DefaultChunkSide is the per-axis chunk extent used when the caller does
// not specify one. 16^4 elements per 4-D chunk keeps chunks cache-sized.
const DefaultChunkSide = 16

// NewSparseBuilder returns a builder that accumulates cells and produces a
// Sparse. chunkSides gives the chunk extent per axis; pass nil for the
// default. Duplicate coordinates are summed, matching fact-table semantics
// where multiple records can land in the same cell.
func NewSparseBuilder(shape nd.Shape, chunkSides nd.Shape) (*SparseBuilder, error) {
	empty, err := newEmptySparse(shape, chunkSides)
	if err != nil {
		return nil, err
	}
	b := &SparseBuilder{
		shape:      empty.shape,
		chunkSides: empty.chunkSides,
		grid:       empty.grid,
		cells:      make([]map[uint32]float64, len(empty.chunks)),
		blocks:     make([]nd.Block, len(empty.chunks)),
	}
	for g := range empty.chunks {
		b.blocks[g] = empty.chunks[g].Block
	}
	return b, nil
}

// newEmptySparse returns a Sparse of the given shape with no entries:
// its chunk grid laid out (nil chunkSides = DefaultChunkSide on every
// axis, each side clamped to its extent) and every chunk's region set.
func newEmptySparse(shape nd.Shape, chunkSides nd.Shape) (*Sparse, error) {
	rank := shape.Rank()
	if chunkSides == nil {
		chunkSides = make(nd.Shape, rank)
		for i := range chunkSides {
			chunkSides[i] = DefaultChunkSide
		}
	} else {
		chunkSides = chunkSides.Clone()
	}
	if len(chunkSides) != rank {
		return nil, fmt.Errorf("array: chunk sides %v do not match shape %v", chunkSides, shape)
	}
	grid := make(nd.Shape, rank)
	for i := range chunkSides {
		if chunkSides[i] < 1 {
			return nil, fmt.Errorf("array: non-positive chunk side %d on axis %d", chunkSides[i], i)
		}
		if chunkSides[i] > shape[i] {
			chunkSides[i] = shape[i]
		}
		grid[i] = (shape[i] + chunkSides[i] - 1) / chunkSides[i]
	}
	s := &Sparse{
		shape:      shape.Clone(),
		chunkSides: chunkSides,
		grid:       grid,
		chunks:     make([]Chunk, grid.Size()),
	}
	// Every chunk's Lo and Hi slice one backing array: two allocations for
	// the whole grid rather than two per chunk.
	bounds := make([]int, 2*rank*len(s.chunks))
	gc := make([]int, rank)
	for g := range s.chunks {
		o := 2 * rank * g
		lo, hi := bounds[o:o+rank:o+rank], bounds[o+rank:o+2*rank:o+2*rank]
		grid.Coords(g, gc)
		for i := range lo {
			lo[i] = gc[i] * chunkSides[i]
			hi[i] = min(lo[i]+chunkSides[i], shape[i])
		}
		s.chunks[g].Block = nd.Block{Lo: lo, Hi: hi}
	}
	return s, nil
}

// SparseBuilder accumulates cells for a Sparse array.
type SparseBuilder struct {
	shape      nd.Shape
	chunkSides nd.Shape
	grid       nd.Shape
	cells      []map[uint32]float64
	blocks     []nd.Block
	nnz        int
}

// Add accumulates v into the cell at coords (summing duplicates).
func (b *SparseBuilder) Add(coords []int, v float64) error {
	if !b.shape.Contains(coords) {
		return fmt.Errorf("array: coords %v out of range for %v", coords, b.shape)
	}
	gidx := 0
	for i, c := range coords {
		gidx = gidx*b.grid[i] + c/b.chunkSides[i]
	}
	blk := b.blocks[gidx]
	off := 0
	for i, c := range coords {
		off = off*(blk.Hi[i]-blk.Lo[i]) + (c - blk.Lo[i])
	}
	m := b.cells[gidx]
	if m == nil {
		m = make(map[uint32]float64)
		b.cells[gidx] = m
	}
	if _, ok := m[uint32(off)]; !ok {
		b.nnz++
	}
	m[uint32(off)] += v
	return nil
}

// Build finalizes the builder into an immutable Sparse array. The builder
// must not be used afterwards.
func (b *SparseBuilder) Build() *Sparse {
	s := &Sparse{
		shape:      b.shape,
		chunkSides: b.chunkSides,
		grid:       b.grid,
		chunks:     make([]Chunk, len(b.cells)),
		nnz:        b.nnz,
	}
	for gidx, m := range b.cells {
		s.chunks[gidx].Block = b.blocks[gidx]
		if len(m) == 0 {
			continue
		}
		entries := make([]Entry, 0, len(m))
		for off, v := range m {
			entries = append(entries, Entry{Off: off, Val: v})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Off < entries[j].Off })
		s.chunks[gidx].Entries = entries
		b.cells[gidx] = nil
	}
	b.cells = nil
	return s
}

// Shape returns the array's global shape.
func (s *Sparse) Shape() nd.Shape { return s.shape }

// NNZ returns the number of stored (non-zero) elements.
func (s *Sparse) NNZ() int { return s.nnz }

// Sparsity returns the fraction of cells stored, in [0, 1].
func (s *Sparse) Sparsity() float64 { return float64(s.nnz) / float64(s.shape.Size()) }

// Bytes returns the compressed payload size: 12 bytes per stored entry.
func (s *Sparse) Bytes() int64 { return int64(s.nnz) * entryBytes }

// NumChunks returns the number of chunks (including empty ones).
func (s *Sparse) NumChunks() int { return len(s.chunks) }

// Iter calls fn for every stored element with its global coordinates and
// value, chunk by chunk — the disk-friendly access order the paper assumes.
// The coords slice is reused; fn must not retain it.
func (s *Sparse) Iter(fn func(coords []int, v float64)) {
	rank := s.shape.Rank()
	coords := make([]int, rank)
	local := make([]int, rank)
	// One chunk-shape buffer reused across chunks; Block.Shape() would
	// allocate a fresh slice for every chunk visited.
	cshape := make(nd.Shape, rank)
	for ci := range s.chunks {
		ch := &s.chunks[ci]
		if len(ch.Entries) == 0 {
			continue
		}
		for i := 0; i < rank; i++ {
			cshape[i] = ch.Block.Hi[i] - ch.Block.Lo[i]
		}
		for _, e := range ch.Entries {
			cshape.Coords(int(e.Off), local)
			for i := 0; i < rank; i++ {
				coords[i] = ch.Block.Lo[i] + local[i]
			}
			fn(coords, e.Val)
		}
	}
}

// At returns the value stored at coords, or 0 if absent.
func (s *Sparse) At(coords ...int) float64 {
	if !s.shape.Contains(coords) {
		panic(fmt.Sprintf("array: coords %v out of range for %v", coords, s.shape))
	}
	gidx := 0
	for i, c := range coords {
		gidx = gidx*s.grid[i] + c/s.chunkSides[i]
	}
	ch := &s.chunks[gidx]
	cshape := ch.Block.Shape()
	off := 0
	for i, c := range coords {
		off = off*cshape[i] + (c - ch.Block.Lo[i])
	}
	es := ch.Entries
	lo, hi := 0, len(es)
	for lo < hi {
		mid := (lo + hi) / 2
		if es[mid].Off < uint32(off) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(es) && es[lo].Off == uint32(off) {
		return es[lo].Val
	}
	return 0
}

// ToDense materializes the sparse array densely (for verification and small
// inputs only).
func (s *Sparse) ToDense() *Dense {
	d := NewDense(s.shape, agg.Sum)
	s.Iter(func(coords []int, v float64) {
		d.data[s.shape.Offset(coords)] = v
	})
	return d
}

// SubBlock extracts the portion of the array inside the given global block
// as a Sparse array whose shape is the block's shape and whose coordinates
// are relative to the block origin: Split with one block, so it shares
// every chunk it can with s.
func (s *Sparse) SubBlock(b nd.Block) (*Sparse, error) {
	parts, err := s.Split([]nd.Block{b})
	if err != nil {
		return nil, err
	}
	return parts[0], nil
}

// ChunkSides returns the per-axis chunk extents the array was built with.
func (s *Sparse) ChunkSides() nd.Shape { return s.chunkSides }

// IterChunks visits every chunk (including empty ones) with its global
// block and stored entries, in row-major chunk order. The entries slice
// aliases internal storage; fn must not modify or retain it.
func (s *Sparse) IterChunks(fn func(block nd.Block, entries []Entry) error) error {
	for ci := range s.chunks {
		ch := &s.chunks[ci]
		if err := fn(ch.Block, ch.Entries); err != nil {
			return err
		}
	}
	return nil
}
