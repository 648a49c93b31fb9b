package array

import (
	"cmp"
	"fmt"
	"slices"

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

// NewSparseBuilder returns a builder of a Sparse with the given shape and
// chunk extent per axis (nil: the default). Duplicate coordinates are
// summed, as records landing in one cell of a fact table are.
func NewSparseBuilder(shape nd.Shape, chunkSides nd.Shape) (*SparseBuilder, error) {
	s, err := newEmptySparse(shape, chunkSides)
	if err != nil {
		return nil, err
	}
	return &SparseBuilder{s: s}, nil
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

// SparseBuilder accumulates cells for a Sparse array: Add appends each
// cell to its chunk's entries, Build puts every chunk in order once.
type SparseBuilder struct{ s *Sparse }

// Add accumulates v into the cell at coords (summing duplicates).
func (b *SparseBuilder) Add(coords []int, v float64) error {
	if !b.s.shape.Contains(coords) {
		return fmt.Errorf("array: coords %v out of range for %v", coords, b.s.shape)
	}
	ch, off := b.s.locate(coords)
	ch.Entries = append(ch.Entries, Entry{Off: off, Val: v})
	return nil
}

// locate returns the chunk holding in-range coords and their offset in it.
func (s *Sparse) locate(coords []int) (*Chunk, uint32) {
	gidx := 0
	for i, c := range coords {
		gidx = gidx*s.grid[i] + c/s.chunkSides[i]
	}
	ch := &s.chunks[gidx]
	off := 0
	for i, c := range coords {
		off = off*(ch.Block.Hi[i]-ch.Block.Lo[i]) + (c - ch.Block.Lo[i])
	}
	return ch, uint32(off)
}

// Reserve sizes each chunk for the entries of like (same shape and chunk
// sides) and a few more, so re-adding like's cells grows no chunk.
func (b *SparseBuilder) Reserve(like *Sparse) {
	for g, ch := range like.chunks {
		if n := len(ch.Entries); n > 0 {
			b.s.chunks[g].Entries = make([]Entry, 0, n+n/64+4)
		}
	}
}

// Build finalizes the builder into an immutable Sparse array. The builder
// must not be used afterwards.
func (b *SparseBuilder) Build() *Sparse {
	s := b.s
	b.s = nil
	var tmp []Entry
	for g := range s.chunks {
		s.nnz += s.chunks[g].order(&tmp)
	}
	return s
}

// order puts a chunk's entries in storage order and returns how many
// remain: a strictly ascending chunk is kept, any other radix-sorted
// (stably; *tmp is the second buffer) and compacted in place, summing a
// cell's duplicates in the order added. Values are folded from +0.
func (ch *Chunk) order(tmp *[]Entry) int {
	es := ch.Entries
	sorted := true
	for i := range es {
		es[i].Val = 0 + es[i].Val
		if i > 0 && es[i].Off <= es[i-1].Off {
			sorted = false
		}
	}
	if !sorted {
		*tmp = slices.Grow((*tmp)[:0], len(es))
		w := 0
		for i, e := range radixSort(es, (*tmp)[:len(es)], ch.Block.Size()) {
			if i > 0 && e.Off == es[w-1].Off {
				es[w-1].Val += e.Val
				continue
			}
			es[w] = e
			w++
		}
		es = es[:w]
	}
	if cap(es) > len(es)+len(es)/8 {
		es = slices.Clone(es) // drops append's slack
	}
	ch.Entries = es[:len(es):len(es)] // clipped: Split shares chunk slices
	return len(es)
}

// radixSort stably orders es by offset (below vol), 8 bits a pass, and
// returns whichever of es and tmp holds the result.
func radixSort(es, tmp []Entry, vol int) []Entry {
	for shift := 0; (vol-1)>>shift > 0; shift += 8 {
		var count [257]int
		for _, e := range es {
			count[(e.Off>>shift)&0xff+1]++
		}
		for d := 1; d < len(count); d++ {
			count[d] += count[d-1]
		}
		for _, e := range es {
			d := (e.Off >> shift) & 0xff
			tmp[count[d]] = e
			count[d]++
		}
		es, tmp = tmp, es
	}
	return es
}

// Shape returns the array's global shape.
func (s *Sparse) Shape() nd.Shape { return s.shape }

// NNZ returns the number of stored (non-zero) elements.
func (s *Sparse) NNZ() int { return s.nnz }

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
	cshape := make(nd.Shape, rank) // reused: Block.Shape() allocates
	for ci := range s.chunks {
		ch := &s.chunks[ci]
		if len(ch.Entries) == 0 {
			continue
		}
		for i := 0; i < rank; i++ {
			cshape[i] = ch.Block.Hi[i] - ch.Block.Lo[i]
		}
		for _, e := range ch.Entries {
			cshape.Coords(int(e.Off), coords)
			for i := 0; i < rank; i++ {
				coords[i] += ch.Block.Lo[i]
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
	ch, off := s.locate(coords)
	if i, ok := slices.BinarySearchFunc(ch.Entries, off, func(e Entry, off uint32) int {
		return cmp.Compare(e.Off, off)
	}); ok {
		return ch.Entries[i].Val
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

// SubBlock is Split with one block: the part of s inside b, in
// b-relative coordinates, sharing every chunk it can with s.
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
