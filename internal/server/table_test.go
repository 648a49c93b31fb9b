package server

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"parcube"
)

// copiedBackend serves a cube through *Table copies of its tables, the
// form every serving-tier backend but a single cube answers in.
type copiedBackend struct{ cubeBackend }

func (b copiedBackend) GroupBy(dims ...string) (Result, error) {
	r, err := b.cubeBackend.GroupBy(dims...)
	if err != nil {
		return nil, err
	}
	return TableOf(r), nil
}

// tiedCube is a 3x4 cube whose cells take three values, so TOP has ties
// to break.
func tiedCube(t *testing.T) *parcube.Cube {
	t.Helper()
	schema, err := parcube.NewSchema(parcube.Dim{Name: "item", Size: 3}, parcube.Dim{Name: "branch", Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	ds := parcube.NewDataset(schema)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if err := ds.Add(float64((i+j)%3+1), i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	cube, _, err := parcube.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

// TestResultContract runs one contract over both Result implementations,
// the cube's *parcube.Table and the serving tier's *Table: through the
// server a coordinate outside the table is an ERR, a 0-D table has one
// cell, and TOP ranks ties by ascending coordinates.
func TestResultContract(t *testing.T) {
	cube := tiedCube(t)
	ib, err := cube.GroupBy("item", "branch")
	if err != nil {
		t.Fatal(err)
	}
	// The expected TOP: every cell in row-major order, stably sorted by
	// descending value.
	type cell struct {
		i, j int
		v    float64
	}
	var cells []cell
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			cells = append(cells, cell{i, j, ib.At(i, j)})
		}
	}
	sort.SliceStable(cells, func(a, b int) bool { return cells[a].v > cells[b].v })
	var top strings.Builder
	fmt.Fprintf(&top, "OK 5\n")
	for _, c := range cells[:5] {
		fmt.Fprintf(&top, "%d,%d %g\n", c.i, c.j, c.v)
	}
	top.WriteString(".\n")

	for name, b := range map[string]Backend{
		"*parcube.Table": cubeBackend{cube},
		"*server.Table":  copiedBackend{cubeBackend{cube}},
	} {
		srv := NewBackend(b)
		ask := func(line string) string {
			var out bytes.Buffer
			w := bufio.NewWriter(&out)
			srv.handle(nil, nil, w, line)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			return out.String()
		}
		for _, line := range []string{"VALUE item,branch 3,0", "VALUE item,branch 0,4", "VALUE branch 4", "VALUE item 7"} {
			if got := ask(line); !strings.HasPrefix(got, "ERR ") {
				t.Errorf("%s: %q answered %q, want an ERR", name, line, got)
			}
		}
		if got, want := ask("VALUE branch,item 3,2"), fmt.Sprintf("OK %g\n", ib.At(2, 3)); got != want {
			t.Errorf("%s: in-range VALUE answered %q, want %q", name, got, want)
		}
		total, err := b.GroupBy()
		if err != nil {
			t.Fatal(err)
		}
		if total.Size() != 1 || len(total.Shape()) != 0 || total.At() != cube.Total() || len(total.Values()) != 1 {
			t.Errorf("%s: 0-D table has shape %v, %d cells, At() = %v; want one cell holding %v",
				name, total.Shape(), total.Size(), total.At(), cube.Total())
		}
		if got := ask("TOP 5 item,branch"); got != top.String() {
			t.Errorf("%s: TOP 5 answered\n%s\nwant\n%s", name, got, top.String())
		}
	}
}
