package main

import (
	"strings"
	"testing"

	"parcube/internal/array"
	"parcube/internal/lattice"
	"parcube/internal/nd"
)

func TestMaskOf(t *testing.T) {
	names := []string{"A", "B", "C"}
	mask, err := maskOf("A,C", names)
	if err != nil {
		t.Fatal(err)
	}
	if mask != lattice.DimSet(0b101) {
		t.Fatalf("mask = %b", mask)
	}
	if m, err := maskOf("", names); err != nil || m != 0 {
		t.Fatalf("empty groupby: %b, %v", m, err)
	}
	if m, err := maskOf(" B ", names); err != nil || m != 0b010 {
		t.Fatalf("trimmed: %b, %v", m, err)
	}
	if _, err := maskOf("A,Z", names); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestParseShapeQuery(t *testing.T) {
	s, err := parseShape("9x9")
	if err != nil || s.Size() != 81 {
		t.Fatalf("parseShape: %v, %v", s, err)
	}
	if _, err := parseShape("9xq"); err == nil {
		t.Fatal("bad shape accepted")
	}
}

// TestPrintTop pins -top's output: largest first, ties by ascending
// coordinates, and a k past the table prints every cell.
func TestPrintTop(t *testing.T) {
	a, err := array.FromValues(nd.MustShape(2, 3), []float64{5, 7, 5, 7, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"A", "B"}
	for k, want := range map[int]string{
		1: "A=0 B=1 value=7\n",
		4: "A=0 B=1 value=7\nA=1 B=0 value=7\nA=0 B=0 value=5\nA=0 B=2 value=5\n",
		9: "A=0 B=1 value=7\nA=1 B=0 value=7\nA=0 B=0 value=5\nA=0 B=2 value=5\nA=1 B=2 value=5\nA=1 B=1 value=1\n",
	} {
		var out strings.Builder
		if err := printTop(&out, a, 0b11, names, k); err != nil {
			t.Fatal(err)
		}
		if out.String() != want {
			t.Errorf("-top %d printed\n%s\nwant\n%s", k, out.String(), want)
		}
	}
	total, err := array.FromValues(nd.Shape{}, []float64{-2})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := printTop(&out, total, 0, names, 3); err != nil || out.String() != "value=-2\n" {
		t.Fatalf("-top 3 of the grand total printed %q, %v", out.String(), err)
	}
}
