package parcube

import (
	"bytes"
	"strings"
	"testing"
)

func TestDiceAndRangeTotal(t *testing.T) {
	ds := retailDataset(t, 40, 300)
	cube, _, err := Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	ib, _ := cube.GroupBy("item", "branch")

	diced, err := ib.Dice(map[string]Range{"item": {Lo: 2, Hi: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := diced.Shape(); got[0] != 3 || got[1] != 6 {
		t.Fatalf("diced shape = %v", got)
	}
	for i := 0; i < 3; i++ {
		for b := 0; b < 6; b++ {
			if diced.At(i, b) != ib.At(i+2, b) {
				t.Fatalf("dice misaligned at (%d,%d)", i, b)
			}
		}
	}

	// RangeTotal equals the manual sum.
	got, err := ib.RangeTotal(map[string]Range{"item": {Lo: 2, Hi: 5}, "branch": {Lo: 1, Hi: 3}})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 2; i < 5; i++ {
		for b := 1; b < 3; b++ {
			want += ib.At(i, b)
		}
	}
	if got != want {
		t.Fatalf("RangeTotal = %v, want %v", got, want)
	}

	// Full-extent RangeTotal equals the grand total.
	all, err := ib.RangeTotal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if all != cube.Total() {
		t.Fatalf("full RangeTotal = %v, want %v", all, cube.Total())
	}
}

func TestDiceValidation(t *testing.T) {
	cube, _, _ := Build(retailDataset(t, 41, 50))
	ib, _ := cube.GroupBy("item", "branch")
	if _, err := ib.Dice(map[string]Range{"bogus": {0, 1}}); err == nil {
		t.Fatal("bogus dimension accepted")
	}
	if _, err := ib.Dice(map[string]Range{"item": {3, 2}}); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := ib.Dice(map[string]Range{"item": {0, 99}}); err == nil {
		t.Fatal("overflowing range accepted")
	}
}

func TestDatasetCSVRoundTrip(t *testing.T) {
	ds := retailDataset(t, 42, 150)
	var buf bytes.Buffer
	if err := WriteDatasetCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "item,branch,time,value\n") {
		t.Fatalf("csv header = %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	loaded, err := ReadDatasetCSV(&buf, retailSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := Build(loaded)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Build(retailDataset(t, 42, 150))
	if err != nil {
		t.Fatal(err)
	}
	if a.Total() != b.Total() {
		t.Fatalf("totals differ after CSV round trip: %v vs %v", a.Total(), b.Total())
	}
}

func TestReadDatasetCSVRejectsWrongHeader(t *testing.T) {
	csv := "x,y,z,value\n0,0,0,1\n"
	if _, err := ReadDatasetCSV(strings.NewReader(csv), retailSchema(t)); err == nil {
		t.Fatal("mismatched header accepted")
	}
}

// TestReadDatasetCSVDuplicateRows: rows at the same coordinates are
// summed into one fact, so Facts counts distinct cells, not rows, and
// the cube's total still holds every row's value.
func TestReadDatasetCSVDuplicateRows(t *testing.T) {
	csv := "item,branch,time,value\n0,0,0,1.5\n2,1,3,4\n0,0,0,2\n"
	ds, err := ReadDatasetCSV(strings.NewReader(csv), retailSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Facts() != 2 || ds.Cells() != 2 {
		t.Fatalf("Facts = %d, Cells = %d, want 2 and 2 for 3 rows over 2 cells", ds.Facts(), ds.Cells())
	}
	cube, _, err := Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	if cube.Total() != 7.5 {
		t.Fatalf("Total = %v, want 7.5", cube.Total())
	}
}

func TestCubeSnapshotRoundTripFacade(t *testing.T) {
	cube, _, err := Build(retailDataset(t, 43, 200))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCubeSnapshot(bytes.NewReader(buf.Bytes()), retailSchema(t), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Total() != cube.Total() {
		t.Fatalf("loaded total = %v, want %v", loaded.Total(), cube.Total())
	}
	got, err := loaded.GroupBy("item", "time")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := cube.GroupBy("item", "time")
	for i := 0; i < got.Size(); i++ {
		if got.data.Data()[i] != want.data.Data()[i] {
			t.Fatal("loaded cube differs")
		}
	}
	// Full-mask queries need the dataset and must error cleanly.
	if _, err := loaded.GroupBy("item", "branch", "time"); err == nil {
		t.Fatal("full group-by from snapshot accepted")
	}
	// Rollups still work on the loaded cube.
	rolled, err := got.Rollup("time")
	if err != nil {
		t.Fatal(err)
	}
	byItem, _ := cube.GroupBy("item")
	if rolled.At(0) != byItem.At(0) {
		t.Fatal("rollup on loaded cube differs")
	}
}

func TestReadCubeSnapshotValidation(t *testing.T) {
	cube, _, _ := Build(retailDataset(t, 44, 50))
	var buf bytes.Buffer
	_ = cube.WriteSnapshot(&buf)
	wrong, _ := NewSchema(Dim{Name: "a", Size: 3}, Dim{Name: "b", Size: 3}, Dim{Name: "c", Size: 3})
	if _, err := ReadCubeSnapshot(bytes.NewReader(buf.Bytes()), wrong, Sum); err == nil {
		t.Fatal("mismatched schema accepted")
	}
	if _, err := ReadCubeSnapshot(bytes.NewReader(buf.Bytes()), retailSchema(t), Aggregator(9)); err == nil {
		t.Fatal("bad aggregator accepted")
	}
	if _, err := ReadCubeSnapshot(strings.NewReader("junk"), retailSchema(t), Sum); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestSaveDirLoadDirRoundTrip(t *testing.T) {
	cube, _, err := Build(retailDataset(t, 80, 250))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := cube.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCubeDir(dir, retailSchema(t), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Total() != cube.Total() {
		t.Fatalf("loaded total %v != %v", loaded.Total(), cube.Total())
	}
	got, err := loaded.Query("GROUP BY item WHERE branch = 1")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := cube.Query("GROUP BY item WHERE branch = 1")
	for i := 0; i < got.Size(); i++ {
		if got.At(i) != want.At(i) {
			t.Fatal("loaded cube query differs")
		}
	}
	// Wrong schema is rejected.
	other, _ := NewSchema(Dim{Name: "x", Size: 2}, Dim{Name: "y", Size: 2}, Dim{Name: "z", Size: 2})
	if _, err := LoadCubeDir(dir, other, Sum); err == nil {
		t.Fatal("mismatched schema accepted")
	}
	if _, err := LoadCubeDir(t.TempDir(), retailSchema(t), Sum); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := LoadCubeDir(dir, retailSchema(t), Aggregator(9)); err == nil {
		t.Fatal("bad aggregator accepted")
	}
}

func TestCubeStateRoundTrip(t *testing.T) {
	ds := retailDataset(t, 77, 200)
	cube, _, err := Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCubeState(bytes.NewReader(buf.Bytes()), ds.Schema(), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() != cube.Total() {
		t.Fatalf("restored total = %v, want %v", got.Total(), cube.Total())
	}
	// Proper group-bys round-trip cell-exactly.
	want, _ := cube.GroupBy("item", "branch")
	have, err := got.GroupBy("item", "branch")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.Shape()[0]; i++ {
		for j := 0; j < want.Shape()[1]; j++ {
			if have.At(i, j) != want.At(i, j) {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, j, have.At(i, j), want.At(i, j))
			}
		}
	}
	// Unlike a bare snapshot, state keeps the fact table: the full
	// group-by answers, and deltas still apply.
	names := ds.Schema().Names()
	if _, err := got.GroupBy(names...); err != nil {
		t.Fatalf("full group-by after restore: %v", err)
	}
	delta := NewDataset(ds.Schema())
	if err := delta.Add(5, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := got.Update(delta); err != nil {
		t.Fatalf("update after restore: %v", err)
	}
	if got.Total() != cube.Total()+5 {
		t.Fatalf("total after restored update = %v, want %v", got.Total(), cube.Total()+5)
	}
}

func TestCubeStateRejectsCorruption(t *testing.T) {
	ds := retailDataset(t, 78, 60)
	cube, _, err := Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte inside the snapshot section: the CRC footer must
	// refuse it.
	corrupt := append([]byte(nil), data...)
	corrupt[40] ^= 0x10
	if _, err := ReadCubeState(bytes.NewReader(corrupt), ds.Schema(), Sum); err == nil {
		t.Fatal("bit-rotted cube state accepted")
	}
	if _, err := ReadCubeState(bytes.NewReader(data[:len(data)/2]), ds.Schema(), Sum); err == nil {
		t.Fatal("truncated cube state accepted")
	}
}
