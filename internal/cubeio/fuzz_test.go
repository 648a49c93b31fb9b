package cubeio

import (
	"bytes"
	"encoding/binary"
	"testing"

	"parcube/internal/agg"
	"parcube/internal/nd"
	"parcube/internal/seq"
)

// validSnapshot serializes a real cube store for the seed corpus.
func validSnapshot(f *testing.F) []byte {
	res, err := seq.Build(sampleSparse(f), seq.Options{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, res.Cube); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadSnapshot throws arbitrary bytes at the snapshot decoder. It must
// never panic or allocate beyond the input's actual content, and anything
// it accepts must serialize back without error.
func FuzzReadSnapshot(f *testing.F) {
	valid := validSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated data section
	f.Add([]byte("PARCUBE1"))
	f.Add([]byte("not a snapshot at all"))
	// A header that claims a 2^40-element group-by over an empty stream:
	// the decoder must fail fast instead of allocating the claim.
	var huge bytes.Buffer
	huge.WriteString("PARCUBE1")
	for _, v := range []uint32{1, 3, 2, 1 << 20, 1 << 20} {
		binary.Write(&huge, binary.LittleEndian, v)
	}
	f.Add(huge.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		store, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if store == nil {
			t.Fatal("nil store without error")
		}
		if err := WriteSnapshot(&bytes.Buffer{}, store); err != nil {
			t.Fatalf("accepted snapshot does not re-serialize: %v", err)
		}
	})
}

// FuzzSparseScanner streams arbitrary bytes through the chunked sparse
// reader. Decoding must terminate, never panic, never yield a cell outside
// the shape, and report any non-EOF malformation through Err. Every input
// the reader accepts with a small enough shape is also built into a cube
// straight from a second scanner: the build must not panic, and when the
// file is well formed its Count total must equal the cells streamed.
func FuzzSparseScanner(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteSparseBinary(&valid, sampleSparse(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())-2])
	f.Add([]byte("PARSPAR1"))
	f.Add([]byte("garbage"))
	// Valid header, then a chunk claiming ~2^32 entries with no payload.
	var huge bytes.Buffer
	huge.WriteString("PARSPAR1")
	for _, v := range []uint32{
		3, 2048, 2048, 1024, // rank, sizes
		2048, 2048, 1024, // chunk sides
		0, 0, 0, 2048, 2048, 1024, // block lo, hi
		0xFFFFFFF0, // entry count
	} {
		binary.Write(&huge, binary.LittleEndian, v)
	}
	f.Add(huge.Bytes())
	// A 4x4 chunk whose only entry sits past the block, and a chunk whose
	// corner lies outside the shape, with an entry in the part outside.
	f.Add(sparseFile4x4([2]uint32{0, 0}, [2]uint32{4, 4}, 17))
	f.Add(sparseFile4x4([2]uint32{0, 0}, [2]uint32{8, 4}, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewSparseScanner(bytes.NewReader(data))
		if err != nil {
			return
		}
		shape := s.Shape()
		cells := 0
		s.Iter(func(coords []int, v float64) {
			if !shape.Contains(coords) {
				t.Fatalf("coords %v outside shape %v", coords, shape)
			}
			cells++
		})
		scanErr := s.Err() // may be non-nil for malformed tails; must not panic
		// The cube holds prod(n_i + 1) cells; only build what stays small.
		cubeCells := 1
		for _, n := range shape {
			if cubeCells *= n + 1; cubeCells > 1<<16 {
				return
			}
		}
		s, err = NewSparseScanner(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("second scanner: %v", err)
		}
		res, err := seq.BuildFromSource(s, seq.Options{Op: agg.Count})
		if (err == nil) != (scanErr == nil) {
			t.Fatalf("build error %v, scanner error %v", err, scanErr)
		}
		if err != nil {
			return
		}
		total, ok := res.Cube.Get(0)
		if !ok || total.Scalar() != float64(cells) {
			t.Fatalf("Count total %v (present %v), streamed %d cells", total, ok, cells)
		}
	})
}

// FuzzReadCSV parses arbitrary bytes as a fact-table CSV against a fixed
// shape. Accepted inputs must produce a sparse array within the shape.
func FuzzReadCSV(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteCSV(&valid, []string{"item", "branch"}, sampleSparse(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("a,b,value\n0,0,1\n3,2,4.5\n"))
	f.Add([]byte("a,b,value\n9,0,1\n"))
	f.Add([]byte(""))
	f.Add([]byte("a,b,value\n0,0,NaN\n"))
	shape := nd.MustShape(4, 3)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, _, err := ReadCSV(bytes.NewReader(data), shape)
		if err != nil {
			return
		}
		if s == nil {
			t.Fatal("nil array without error")
		}
		if s.NNZ() > shape.Size() {
			t.Fatalf("%d stored cells in a %d-cell shape", s.NNZ(), shape.Size())
		}
	})
}
