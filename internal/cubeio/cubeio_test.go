package cubeio

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/lattice"
	"parcube/internal/nd"
	"parcube/internal/seq"
)

func sampleSparse(t testing.TB) *array.Sparse {
	t.Helper()
	b, err := array.NewSparseBuilder(nd.MustShape(4, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = b.Add([]int{0, 0}, 1.5)
	_ = b.Add([]int{3, 2}, 2)
	_ = b.Add([]int{1, 1}, -3)
	return b.Build()
}

func TestCSVRoundTrip(t *testing.T) {
	s := sampleSparse(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []string{"item", "branch"}, s); err != nil {
		t.Fatal(err)
	}
	got, names, err := ReadCSV(&buf, nd.MustShape(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if names[0] != "item" || names[1] != "branch" {
		t.Fatalf("names = %v", names)
	}
	if !got.ToDense().Equal(s.ToDense()) {
		t.Fatal("round trip changed data")
	}
}

func TestWriteCSVValidation(t *testing.T) {
	if err := WriteCSV(&bytes.Buffer{}, []string{"one"}, sampleSparse(t)); err == nil {
		t.Fatal("name count mismatch accepted")
	}
}

func TestReadCSVErrors(t *testing.T) {
	shape := nd.MustShape(4, 3)
	cases := []string{
		"",                         // no header
		"a,b,value\nx,0,1\n",       // bad coordinate
		"a,b,value\n0,0,notanum\n", // bad value
		"a,b,value\n9,0,1\n",       // out of range
		"a,b,value\n0,0\n",         // short row
		"a,b,value\n0,0,1,extra\n", // long row
	}
	for _, c := range cases {
		if _, _, err := ReadCSV(strings.NewReader(c), shape); err == nil {
			t.Fatalf("accepted %q", c)
		}
	}
}

// TestReadCSVErrorLine pins that an error names the physical line of the
// bad row: encoding/csv skips blank lines, so a record count would not.
func TestReadCSVErrorLine(t *testing.T) {
	shape := nd.MustShape(4, 3)
	for in, want := range map[string]string{
		"a,b,value\n0,0,1\n\n\n\n0,x,1\n":         "cubeio: line 6, column 2",
		"a,b,value\n\n0,0,z\n":                    "cubeio: line 3, value",
		"a,b,value\n0,0,1\n\n9,0,1\n":             "cubeio: line 4:",
		"a,b,value\n\n\n0,0\n":                    "line 4",
		"a,b,value\n\"0\",\"1\",2\n\n\"q\",0,1\n": "cubeio: line 4, column 1",
	} {
		_, _, err := ReadCSV(strings.NewReader(in), shape)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadCSV(%q) error = %v, want it to contain %q", in, err, want)
		}
	}
}

func TestReadCSVSumsDuplicates(t *testing.T) {
	in := "a,b,value\n1,1,2\n1,1,3\n"
	s, _, err := ReadCSV(strings.NewReader(in), nd.MustShape(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if s.At(1, 1) != 5 {
		t.Fatalf("duplicate sum = %v", s.At(1, 1))
	}
}

func TestWriteGroupByCSV(t *testing.T) {
	a, _ := array.FromValues(nd.MustShape(2, 2), []float64{1, 2, 3, 4})
	var buf bytes.Buffer
	if err := WriteGroupByCSV(&buf, []string{"item", "branch", "time"}, lattice.DimSet(0b101), a); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "item,time,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 5 {
		t.Fatalf("%d lines", len(lines))
	}
	if lines[4] != "1,1,4" {
		t.Fatalf("last row = %q", lines[4])
	}
}

func TestWriteGroupByCSVScalar(t *testing.T) {
	a := array.NewDense(nd.Shape{}, agg.Sum)
	a.Data()[0] = 42
	var buf bytes.Buffer
	if err := WriteGroupByCSV(&buf, nil, 0, a); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "value\n42" {
		t.Fatalf("scalar CSV = %q", buf.String())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	input := sampleSparse(t)
	res, err := seq.Build(input, seq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, res.Cube); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != res.Cube.Len() {
		t.Fatalf("snapshot has %d group-bys, want %d", got.Len(), res.Cube.Len())
	}
	for _, mask := range res.Cube.Masks() {
		want, _ := res.Cube.Get(mask)
		a, ok := got.Get(mask)
		if !ok || !a.Equal(want) {
			t.Fatalf("group-by %b lost in snapshot", mask)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	input := sampleSparse(t)
	res, _ := seq.Build(input, seq.Options{})
	var a, b bytes.Buffer
	if err := WriteSnapshot(&a, res.Cube); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&b, res.Cube); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshots differ between writes")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("not a snapshot at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadSnapshot(strings.NewReader("PARCUBE1")); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	// Huge count.
	var buf bytes.Buffer
	buf.WriteString("PARCUBE1")
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("implausible count accepted")
	}
}

func TestSnapshotV2CRCDetectsCorruption(t *testing.T) {
	input := sampleSparse(t)
	res, err := seq.Build(input, seq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, res.Cube); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if string(data[:8]) != snapshotMagic {
		t.Fatalf("writer emits magic %q, want %q", data[:8], snapshotMagic)
	}

	// A flipped payload bit must fail the footer check even when the
	// damaged bytes still decode structurally.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-12] ^= 0x01
	if _, err := ReadSnapshot(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("bit-rotted snapshot accepted")
	}

	// A snapshot cut before its footer must be rejected as truncated.
	if _, err := ReadSnapshot(bytes.NewReader(data[:len(data)-2])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestSnapshotReadsLegacyV1(t *testing.T) {
	// Hand-built PARCUBE1 stream: one 0-D group-by holding 42. The legacy
	// layout has no version word and no CRC footer.
	var buf bytes.Buffer
	buf.WriteString(snapshotMagicV1)
	binary.Write(&buf, binary.LittleEndian, uint32(1)) // count
	binary.Write(&buf, binary.LittleEndian, uint32(0)) // mask
	binary.Write(&buf, binary.LittleEndian, uint32(0)) // rank
	binary.Write(&buf, binary.LittleEndian, math.Float64bits(42))
	store, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("legacy v1 snapshot rejected: %v", err)
	}
	a, ok := store.Get(0)
	if !ok || a.Scalar() != 42 {
		t.Fatalf("legacy snapshot decoded wrong: %v", a)
	}
}
