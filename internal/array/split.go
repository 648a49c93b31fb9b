package array

import (
	"fmt"

	"parcube/internal/nd"
)

// Split divides the array among blocks in one pass over its chunks; the
// paper's chunk-offset format (Section 6) already stores "each
// processor's portion" as a set of chunks. For every block it returns a
// Sparse of the block's shape, in block-relative coordinates with the
// default chunk sides, that holds the entries inside the block and
// iterates exactly as if they had been added to a SparseBuilder. Entries
// outside every block are dropped; the blocks must not overlap.
//
// Nothing that can be shared is copied. A chunk that coincides with a
// chunk of a block's grid is shared: the block's chunk aliases the same
// Entries slice. Every other chunk's entries are routed into
// per-(block, chunk) slices carved from one backing array that a counting
// pass sizes, then put in order as SparseBuilder.Build orders a chunk.
// The results alias s and are as immutable as s.
func (s *Sparse) Split(blocks []nd.Block) ([]*Sparse, error) {
	rank := s.shape.Rank()
	sp := &splitter{
		src:    s,
		blocks: blocks,
		outs:   make([]*Sparse, len(blocks)),
		first:  make([]int, len(blocks)+1),
		coords: make([]int, rank),
		local:  make([]int, rank),
		cshape: make(nd.Shape, rank),
	}
	for o, b := range blocks {
		if b.Rank() != rank || len(b.Hi) != rank || b.Empty() {
			return nil, fmt.Errorf("array: block %v cannot split an array of shape %v", b, s.shape)
		}
		out, err := newEmptySparse(b.Shape(), nil)
		if err != nil {
			return nil, err
		}
		sp.outs[o] = out
		sp.first[o+1] = sp.first[o] + len(out.chunks)
	}
	sp.counts = make([]int, sp.first[len(blocks)])
	routed := sp.pass(false)
	if routed == 0 {
		return sp.outs, nil
	}
	backing := make([]Entry, routed)
	for o, out := range sp.outs {
		for g := range out.chunks {
			if n := sp.counts[sp.first[o]+g]; n > 0 {
				out.chunks[g].Entries = backing[:0:n]
				backing = backing[n:]
			}
		}
	}
	sp.pass(true)
	var tmp []Entry
	for o, out := range sp.outs {
		for g := range out.chunks {
			if sp.counts[sp.first[o]+g] > 0 {
				out.chunks[g].order(&tmp)
			}
		}
	}
	return sp.outs, nil
}

// splitter is Split's working state.
type splitter struct {
	src    *Sparse
	blocks []nd.Block
	outs   []*Sparse
	first  []int // flat (block, chunk) index of each block's chunk 0
	counts []int // routed entries per flat (block, chunk)
	cand   []int // blocks overlapping the current source chunk

	coords, local []int // scratch: an entry's global and in-chunk coords
	cshape        nd.Shape
}

// pass walks the source chunks. Without fill it shares every chunk it
// can and counts, per (block, chunk), the entries it must route,
// returning their total; with fill it appends those entries to the
// slices sized from the counts.
func (sp *splitter) pass(fill bool) int {
	routed := 0
	for ci := range sp.src.chunks {
		ch := &sp.src.chunks[ci]
		if len(ch.Entries) == 0 {
			continue
		}
		sp.cand = sp.cand[:0]
		for o, b := range sp.blocks {
			if overlaps(b, ch.Block) {
				sp.cand = append(sp.cand, o)
			}
		}
		if len(sp.cand) == 0 {
			continue
		}
		if g, ok := sp.alignedChunk(sp.cand[0], ch.Block); ok {
			if !fill {
				out := sp.outs[sp.cand[0]]
				out.chunks[g].Entries = ch.Entries
				out.nnz += len(ch.Entries)
			}
			continue
		}
		for i := range sp.cshape {
			sp.cshape[i] = ch.Block.Hi[i] - ch.Block.Lo[i]
		}
		for _, e := range ch.Entries {
			sp.cshape.Coords(int(e.Off), sp.local)
			for i, l := range sp.local {
				sp.coords[i] = ch.Block.Lo[i] + l
			}
			o := sp.holder(sp.coords)
			if o < 0 {
				continue
			}
			g, off := sp.place(o, sp.coords)
			if fill {
				c := &sp.outs[o].chunks[g]
				c.Entries = append(c.Entries, Entry{Off: off, Val: e.Val})
				continue
			}
			sp.counts[sp.first[o]+g]++
			sp.outs[o].nnz++
			routed++
		}
	}
	return routed
}

// holder returns the candidate block containing global coords, or -1.
func (sp *splitter) holder(coords []int) int {
	for _, o := range sp.cand {
		if sp.blocks[o].Contains(coords) {
			return o
		}
	}
	return -1
}

// alignedChunk reports whether the global region is exactly one chunk of
// block o's grid, and which. Such a region lies inside block o, so no
// other (disjoint) block holds any of its cells.
func (sp *splitter) alignedChunk(o int, region nd.Block) (int, bool) {
	b, out := sp.blocks[o], sp.outs[o]
	g := 0
	for i := range region.Lo {
		lo, side := region.Lo[i]-b.Lo[i], out.chunkSides[i]
		if lo < 0 || lo%side != 0 || region.Hi[i]-b.Lo[i] != min(lo+side, out.shape[i]) {
			return 0, false
		}
		g = g*out.grid[i] + lo/side
	}
	return g, true
}

// place returns the chunk of block o's grid that holds global coords and
// their offset within that chunk.
func (sp *splitter) place(o int, coords []int) (int, uint32) {
	b, out := sp.blocks[o], sp.outs[o]
	g := 0
	for i, c := range coords {
		g = g*out.grid[i] + (c-b.Lo[i])/out.chunkSides[i]
	}
	cb := out.chunks[g].Block
	off := 0
	for i, c := range coords {
		off = off*(cb.Hi[i]-cb.Lo[i]) + (c - b.Lo[i] - cb.Lo[i])
	}
	return g, uint32(off)
}

// overlaps reports whether two equal-rank blocks share a cell.
func overlaps(a, b nd.Block) bool {
	for i := range a.Lo {
		if a.Hi[i] <= b.Lo[i] || b.Hi[i] <= a.Lo[i] {
			return false
		}
	}
	return true
}
