package cubeio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"parcube/internal/array"
	"parcube/internal/lattice"
	"parcube/internal/nd"
)

// Sparse-array file format (little endian), the on-disk twin of the
// in-memory chunk-offset compression:
//
//	magic      [8]byte "PARSPAR1"
//	rank       uint32
//	sizes      rank x uint32
//	chunkSides rank x uint32
//	chunks     repeated until EOF:
//	  lo       rank x uint32   (chunk block origin)
//	  hi       rank x uint32   (chunk block end, exclusive)
//	  count    uint32          (stored entries)
//	  entries  count x { off uint32, val float64 }
//
// Empty chunks are not written. The format supports streaming: a scanner
// reads one chunk at a time, which is exactly the access pattern the
// paper's disk-resident first level assumes ("when a portion of the array
// is read from a disk ... update corresponding portions simultaneously").
const sparseMagic = "PARSPAR1"

// WriteSparseBinary serializes a sparse array chunk by chunk.
func WriteSparseBinary(w io.Writer, s *array.Sparse) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(sparseMagic); err != nil {
		return err
	}
	shape := s.Shape()
	rank := shape.Rank()
	if err := writeU32s(bw, uint32(rank)); err != nil {
		return err
	}
	for _, d := range shape {
		if err := writeU32s(bw, uint32(d)); err != nil {
			return err
		}
	}
	for _, cs := range s.ChunkSides() {
		if err := writeU32s(bw, uint32(cs)); err != nil {
			return err
		}
	}
	err := s.IterChunks(func(block nd.Block, entries []array.Entry) error {
		if len(entries) == 0 {
			return nil
		}
		for i := 0; i < rank; i++ {
			if err := writeU32s(bw, uint32(block.Lo[i])); err != nil {
				return err
			}
		}
		for i := 0; i < rank; i++ {
			if err := writeU32s(bw, uint32(block.Hi[i])); err != nil {
				return err
			}
		}
		if err := writeU32s(bw, uint32(len(entries))); err != nil {
			return err
		}
		buf := make([]byte, 12*len(entries))
		for i, e := range entries {
			binary.LittleEndian.PutUint32(buf[12*i:], e.Off)
			binary.LittleEndian.PutUint64(buf[12*i+4:], math.Float64bits(e.Val))
		}
		_, err := bw.Write(buf)
		return err
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// SparseScanner streams a sparse-array file chunk by chunk without holding
// the whole array in memory.
type SparseScanner struct {
	r     *bufio.Reader
	shape nd.Shape
	rank  int
	err   error
}

// NewSparseScanner validates the header and positions the scanner at the
// first chunk.
func NewSparseScanner(r io.Reader) (*SparseScanner, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(sparseMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("cubeio: reading sparse magic: %w", err)
	}
	if string(magic) != sparseMagic {
		return nil, fmt.Errorf("cubeio: bad sparse magic %q", magic)
	}
	rank, err := readU32(br)
	if err != nil {
		return nil, err
	}
	// rank came off the wire; bounding it here is what lets the
	// rank-sized allocations below pass cubelint's untrusted-alloc rule.
	if rank == 0 || rank > lattice.MaxDims {
		return nil, fmt.Errorf("cubeio: implausible rank %d", rank)
	}
	sizes := make([]int, rank)
	for i := range sizes {
		v, err := readU32(br)
		if err != nil {
			return nil, err
		}
		sizes[i] = int(v)
	}
	shape, err := nd.NewShape(sizes...)
	if err != nil {
		return nil, err
	}
	// Chunk sides are informational for the scanner; skip over them.
	for i := uint32(0); i < rank; i++ {
		if _, err := readU32(br); err != nil {
			return nil, err
		}
	}
	return &SparseScanner{r: br, shape: shape, rank: int(rank)}, nil
}

// Shape returns the array's global shape.
func (s *SparseScanner) Shape() nd.Shape { return s.shape }

// Next reads one chunk; ok is false at clean EOF. Check Err afterwards.
func (s *SparseScanner) Next() (block nd.Block, entries []array.Entry, ok bool) {
	if s.err != nil {
		return nd.Block{}, nil, false
	}
	lo := make([]int, s.rank)
	for i := range lo {
		v, err := readU32(s.r)
		if err != nil {
			if i == 0 && err == io.EOF {
				return nd.Block{}, nil, false // clean end
			}
			s.err = fmt.Errorf("cubeio: truncated chunk header: %w", err)
			return nd.Block{}, nil, false
		}
		lo[i] = int(v)
	}
	hi := make([]int, s.rank)
	for i := range hi {
		v, err := readU32(s.r)
		if err != nil {
			s.err = fmt.Errorf("cubeio: truncated chunk header: %w", err)
			return nd.Block{}, nil, false
		}
		hi[i] = int(v)
	}
	count, err := readU32(s.r)
	if err != nil {
		s.err = fmt.Errorf("cubeio: truncated chunk count: %w", err)
		return nd.Block{}, nil, false
	}
	block = nd.Block{Lo: lo, Hi: hi}
	if block.Empty() || !s.shape.Contains(lo) || !s.hiInShape(hi) {
		s.err = fmt.Errorf("cubeio: invalid chunk block %v for shape %v", block, s.shape)
		return nd.Block{}, nil, false
	}
	vol := block.Size()
	if int64(count) > int64(vol) {
		s.err = fmt.Errorf("cubeio: chunk %v claims %d entries for %d cells", block, count, vol)
		return nd.Block{}, nil, false
	}
	// The entry count is untrusted header data: decode in bounded chunks
	// so a claim far beyond the stream's actual content fails with memory
	// proportional to what was really sent. Fuzzing found the original
	// count-sized make; cubelint's untrusted-alloc rule now keeps this
	// class of bug out of the tree.
	const chunkEntries = 1 << 16
	first := count
	if first > chunkEntries {
		first = chunkEntries
	}
	entries = make([]array.Entry, 0, first)
	buf := make([]byte, 12*first)
	for uint32(len(entries)) < count {
		c := count - uint32(len(entries))
		if c > chunkEntries {
			c = chunkEntries
		}
		b := buf[:12*c]
		if _, err := io.ReadFull(s.r, b); err != nil {
			s.err = fmt.Errorf("cubeio: truncated chunk payload: %w", err)
			return nd.Block{}, nil, false
		}
		for i := uint32(0); i < c; i++ {
			off := binary.LittleEndian.Uint32(b[12*i:])
			// Offsets index the block row-major and are stored in strictly
			// ascending order; anything else would land a value in another
			// chunk's cell or outside the array.
			if uint64(off) >= uint64(vol) || (len(entries) > 0 && off <= entries[len(entries)-1].Off) {
				s.err = fmt.Errorf("cubeio: chunk %v entry %d has offset %d (block volume %d, offsets must ascend)",
					block, len(entries), off, vol)
				return nd.Block{}, nil, false
			}
			entries = append(entries, array.Entry{
				Off: off,
				Val: math.Float64frombits(binary.LittleEndian.Uint64(b[12*i+4:])),
			})
		}
	}
	return block, entries, true
}

// hiInShape reports whether a chunk's exclusive upper corner lies within
// the array.
func (s *SparseScanner) hiInShape(hi []int) bool {
	for i, h := range hi {
		if h > s.shape[i] {
			return false
		}
	}
	return true
}

// IterChunks streams every remaining chunk to fn, stopping at the first
// error fn returns or the first malformation in the file, which it
// returns. It makes the scanner an array.Source, so a build can consume
// the file chunk by chunk.
func (s *SparseScanner) IterChunks(fn func(block nd.Block, entries []array.Entry) error) error {
	for {
		block, entries, ok := s.Next()
		if !ok {
			return s.err
		}
		if err := fn(block, entries); err != nil {
			return err
		}
	}
}

// Iter streams every stored cell to fn with global coordinates, matching
// array.Sparse.Iter; decoding errors are left in Err.
func (s *SparseScanner) Iter(fn func(coords []int, v float64)) {
	coords := make([]int, s.rank)
	local := make([]int, s.rank)
	for {
		block, entries, ok := s.Next()
		if !ok {
			return
		}
		cshape := block.Shape()
		for _, e := range entries {
			cshape.Coords(int(e.Off), local)
			for i := 0; i < s.rank; i++ {
				coords[i] = block.Lo[i] + local[i]
			}
			fn(coords, e.Val)
		}
	}
}

// Err reports the first decoding error encountered by Next/Iter.
func (s *SparseScanner) Err() error { return s.err }

// writeU32s writes values little-endian.
func writeU32s(w *bufio.Writer, vals ...uint32) error {
	var b [4]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint32(b[:], v)
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

// readU32 reads one little-endian uint32. It returns io.EOF only at a
// clean boundary (zero bytes available); a mid-value truncation surfaces
// as ErrUnexpectedEOF.
func readU32(r *bufio.Reader) (uint32, error) {
	var b [4]byte
	first, err := r.ReadByte()
	if err != nil {
		return 0, err // io.EOF at a clean boundary
	}
	b[0] = first
	if _, err := io.ReadFull(r, b[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}
