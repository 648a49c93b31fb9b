package cubeio

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parcube/internal/array"
	"parcube/internal/nd"
	"parcube/internal/seq"
)

func randSparse(t *testing.T, shape nd.Shape, nnz int, seed int64) *array.Sparse {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := array.NewSparseBuilder(shape, nil)
	if err != nil {
		t.Fatal(err)
	}
	coords := make([]int, shape.Rank())
	for i := 0; i < nnz; i++ {
		for d := range coords {
			coords[d] = rng.Intn(shape[d])
		}
		if err := b.Add(coords, float64(rng.Intn(9)+1)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestSparseBinaryRoundTrip(t *testing.T) {
	s := randSparse(t, nd.MustShape(20, 15, 10), 120, 1)
	var buf bytes.Buffer
	if err := WriteSparseBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	sc, err := NewSparseScanner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Shape().Equal(s.Shape()) {
		t.Fatalf("shape = %v", sc.Shape())
	}
	count := 0
	sum := 0.0
	sc.Iter(func(coords []int, v float64) {
		count++
		sum += v
		if s.At(coords...) != v {
			t.Fatalf("cell %v = %v, want %v", coords, v, s.At(coords...))
		}
	})
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if count != s.NNZ() {
		t.Fatalf("streamed %d cells, want %d", count, s.NNZ())
	}
	want := 0.0
	s.Iter(func(_ []int, v float64) { want += v })
	if sum != want {
		t.Fatalf("sum %v != %v", sum, want)
	}
}

func TestStreamingBuildMatchesInMemory(t *testing.T) {
	// The out-of-core path: write the initial array to a file, stream it
	// back through the scanner, and build the cube without ever holding
	// the input in memory.
	s := randSparse(t, nd.MustShape(12, 10, 8), 150, 2)
	path := filepath.Join(t.TempDir(), "input.spar")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSparseBinary(f, s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	sc, err := NewSparseScanner(in)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := seq.BuildFromSource(sc, seq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	ref, err := seq.Build(s, seq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Cube.Len() != ref.Cube.Len() {
		t.Fatalf("streamed cube has %d group-bys", streamed.Cube.Len())
	}
	for _, mask := range ref.Cube.Masks() {
		got, ok := streamed.Cube.Get(mask)
		want, _ := ref.Cube.Get(mask)
		if !ok || !got.Equal(want) {
			t.Fatalf("group-by %b differs in streaming build", mask)
		}
	}
	if streamed.Stats.Updates != ref.Stats.Updates {
		t.Fatalf("updates %d != %d", streamed.Stats.Updates, ref.Stats.Updates)
	}
}

func TestSparseScannerRejectsGarbage(t *testing.T) {
	if _, err := NewSparseScanner(strings.NewReader("definitely not a file")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := NewSparseScanner(strings.NewReader("PARSPAR1")); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestSparseScannerDetectsTruncation(t *testing.T) {
	s := randSparse(t, nd.MustShape(8, 8), 30, 3)
	var buf bytes.Buffer
	if err := WriteSparseBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop mid-chunk: keep the header plus a few bytes.
	cut := len(full) - 7
	sc, err := NewSparseScanner(bytes.NewReader(full[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, ok := sc.Next(); !ok {
			break
		}
	}
	if sc.Err() == nil {
		t.Fatal("truncation not detected")
	}
}

func TestSparseScannerDetectsBogusChunk(t *testing.T) {
	s := randSparse(t, nd.MustShape(8, 8), 10, 4)
	var buf bytes.Buffer
	if err := WriteSparseBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the first chunk's count field to something absurd. Header:
	// 8 magic + 4 rank + 8 sizes + 8 chunkSides = 28; chunk header: 8 lo +
	// 8 hi, count at offset 28+16.
	pos := 28 + 16
	raw[pos], raw[pos+1], raw[pos+2], raw[pos+3] = 0xff, 0xff, 0xff, 0x7f
	sc, err := NewSparseScanner(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := sc.Next(); ok {
		t.Fatal("bogus chunk accepted")
	}
	if sc.Err() == nil {
		t.Fatal("no error for bogus chunk")
	}
}

// sparseFile4x4 hand-writes a 2-D 4x4 sparse-array file holding one chunk
// with the given bounds and entry offsets (every value 1).
func sparseFile4x4(lo, hi [2]uint32, offs ...uint32) []byte {
	var b bytes.Buffer
	b.WriteString(sparseMagic)
	words := []uint32{2, 4, 4, 4, 4, lo[0], lo[1], hi[0], hi[1], uint32(len(offs))}
	for _, w := range words {
		binary.Write(&b, binary.LittleEndian, w)
	}
	for _, o := range offs {
		binary.Write(&b, binary.LittleEndian, o)
		binary.Write(&b, binary.LittleEndian, math.Float64bits(1))
	}
	return b.Bytes()
}

// TestSparseScannerRejectsChunksOutsideBlock: a chunk whose corner lies
// outside the shape, an entry offset at or past its block's volume, and
// offsets that do not strictly ascend are all malformations. The scanner
// reports each through Err, and a build streaming the file fails with it
// instead of wrapping the value into another cell or panicking.
func TestSparseScannerRejectsChunksOutsideBlock(t *testing.T) {
	cases := []struct {
		name string
		file []byte
	}{
		{"offset past block volume", sparseFile4x4([2]uint32{0, 0}, [2]uint32{4, 4}, 17)},
		{"offset equal to block volume", sparseFile4x4([2]uint32{2, 2}, [2]uint32{4, 4}, 4)},
		{"hi outside shape", sparseFile4x4([2]uint32{0, 0}, [2]uint32{8, 4}, 5)},
		{"descending offsets", sparseFile4x4([2]uint32{0, 0}, [2]uint32{4, 4}, 3, 2)},
		{"duplicate offsets", sparseFile4x4([2]uint32{0, 0}, [2]uint32{4, 4}, 2, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := NewSparseScanner(bytes.NewReader(tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok := sc.Next(); ok {
				t.Fatal("malformed chunk accepted")
			}
			if sc.Err() == nil {
				t.Fatal("malformed chunk not reported through Err")
			}
			sc, err = NewSparseScanner(bytes.NewReader(tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if res, err := seq.BuildFromSource(sc, seq.Options{}); err == nil {
				t.Fatalf("build accepted the file (%d group-bys)", res.Cube.Len())
			}
		})
	}
	// The same file with an in-range, ascending chunk streams and builds.
	sc, err := NewSparseScanner(bytes.NewReader(sparseFile4x4([2]uint32{2, 0}, [2]uint32{4, 4}, 1, 7)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := seq.BuildFromSource(sc, seq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	total, ok := res.Cube.Get(0)
	if !ok || total.Scalar() != 2 {
		t.Fatalf("grand total %v (present %v), want 2", total, ok)
	}
}
