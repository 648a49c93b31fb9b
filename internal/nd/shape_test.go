package nd

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewShapeValidation(t *testing.T) {
	if _, err := NewShape(); err == nil {
		t.Fatal("empty shape accepted")
	}
	if _, err := NewShape(4, 0, 2); err == nil {
		t.Fatal("zero extent accepted")
	}
	if _, err := NewShape(4, -1); err == nil {
		t.Fatal("negative extent accepted")
	}
	if _, err := NewShape(1<<31, 1<<31, 4); err == nil {
		t.Fatal("overflowing shape accepted")
	}
	s, err := NewShape(4, 3, 2)
	if err != nil {
		t.Fatalf("valid shape rejected: %v", err)
	}
	if s.Size() != 24 {
		t.Fatalf("Size = %d, want 24", s.Size())
	}
	if s.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", s.Rank())
	}
}

func TestMustShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustShape did not panic on invalid input")
		}
	}()
	MustShape(0)
}

func TestStrides(t *testing.T) {
	s := MustShape(4, 3, 2)
	st := s.Strides()
	want := []int{6, 2, 1}
	for i := range want {
		if st[i] != want[i] {
			t.Fatalf("Strides = %v, want %v", st, want)
		}
	}
}

func TestOffsetCoordsRoundTrip(t *testing.T) {
	s := MustShape(5, 4, 3)
	coords := make([]int, 3)
	for off := 0; off < s.Size(); off++ {
		s.Coords(off, coords)
		if !s.Contains(coords) {
			t.Fatalf("Coords(%d) = %v not contained in %v", off, coords, s)
		}
		if got := s.Offset(coords); got != off {
			t.Fatalf("Offset(Coords(%d)) = %d", off, got)
		}
	}
}

func TestOffsetMatchesStrides(t *testing.T) {
	s := MustShape(7, 2, 5, 3)
	st := s.Strides()
	coords := make([]int, 4)
	for off := 0; off < s.Size(); off += 11 {
		s.Coords(off, coords)
		manual := 0
		for i, c := range coords {
			manual += c * st[i]
		}
		if manual != off {
			t.Fatalf("stride offset %d != %d for coords %v", manual, off, coords)
		}
	}
}

func TestDropKeep(t *testing.T) {
	s := MustShape(8, 6, 4, 2)
	if got := s.Drop(1); !got.Equal(MustShape(8, 4, 2)) {
		t.Fatalf("Drop(1) = %v", got)
	}
	if got := s.Drop(0); !got.Equal(MustShape(6, 4, 2)) {
		t.Fatalf("Drop(0) = %v", got)
	}
	one := MustShape(9)
	if got := one.Drop(0); got.Rank() != 0 || got.Size() != 1 {
		t.Fatalf("Drop to scalar = %v (size %d)", got, got.Size())
	}
	if got := s.Keep([]int{3, 0}); !got.Equal(MustShape(2, 8)) {
		t.Fatalf("Keep = %v", got)
	}
}

func TestShapeString(t *testing.T) {
	if got := MustShape(64, 32).String(); got != "64x32" {
		t.Fatalf("String = %q", got)
	}
	var scalar Shape
	if got := scalar.String(); got != "scalar" {
		t.Fatalf("scalar String = %q", got)
	}
}

func TestParseShape(t *testing.T) {
	for in, want := range map[string]Shape{
		"16x8x4":    {16, 8, 4},
		"9x9":       {9, 9},
		"7":         {7},
		" 64 x 32 ": {64, 32},
	} {
		got, err := ParseShape(in)
		if err != nil || !got.Equal(want) {
			t.Errorf("ParseShape(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{
		"",                      // no extent
		"x",                     // empty extents
		"4xx2",                  // empty middle extent
		"64xbogus",              // not a number
		"8z4",                   // wrong separator
		"4x-1",                  // negative extent
		"0",                     // zero extent
		"4x2.5",                 // fractional extent
		"4611686018427387904x4", // element count overflows
	} {
		if s, err := ParseShape(bad); err == nil {
			t.Errorf("ParseShape(%q) accepted as %v", bad, s)
		} else if !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("ParseShape(%q) error %q does not name the input", bad, err)
		}
	}
}

func TestSortedDescending(t *testing.T) {
	if !MustShape(8, 8, 4, 1).SortedDescending() {
		t.Fatal("descending shape not detected")
	}
	if MustShape(4, 8).SortedDescending() {
		t.Fatal("ascending shape reported as descending")
	}
}

func TestContainsRejects(t *testing.T) {
	s := MustShape(3, 3)
	for _, bad := range [][]int{{3, 0}, {0, 3}, {-1, 0}, {0}, {0, 0, 0}} {
		if s.Contains(bad) {
			t.Fatalf("Contains(%v) = true", bad)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	s := MustShape(2, 3)
	c := s.Clone()
	c[0] = 99
	if s[0] != 2 {
		t.Fatal("Clone shares backing storage")
	}
}

// Property: Offset and Coords are inverse for random shapes and offsets.
func TestQuickOffsetRoundTrip(t *testing.T) {
	f := func(a, b, c uint8, off uint16) bool {
		s := MustShape(int(a%9)+1, int(b%9)+1, int(c%9)+1)
		o := int(off) % s.Size()
		coords := make([]int, 3)
		s.Coords(o, coords)
		return s.Offset(coords) == o && s.Contains(coords)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
