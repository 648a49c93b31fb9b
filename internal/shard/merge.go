package shard

import (
	"fmt"
	"sort"

	"parcube"
	"parcube/internal/agg"
)

// mergeTable is the coordinator's combined group-by: a dense row-major
// table accumulating every shard's partial aggregates. It satisfies
// server.Result, so the coordinator's server streams it exactly like a
// local cube's table.
type mergeTable struct {
	shape []int
	data  []float64
}

// newMergeTable allocates a table of the given shape filled with the
// operator's identity, so the first combined shard lands on neutral cells.
func newMergeTable(shape []int, op agg.Op) *mergeTable {
	size := 1
	for _, s := range shape {
		size *= s
	}
	t := &mergeTable{shape: append([]int(nil), shape...), data: make([]float64, size)}
	op.Fill(t.data)
	return t
}

// offsetOf converts row coordinates to the row-major offset.
func (t *mergeTable) offsetOf(coords []int) (int, error) {
	if len(coords) != len(t.shape) {
		return 0, fmt.Errorf("shard: %d coordinates for %d dimensions", len(coords), len(t.shape))
	}
	off := 0
	for i, c := range coords {
		if c < 0 || c >= t.shape[i] {
			return 0, fmt.Errorf("shard: coordinate %d out of range [0,%d)", c, t.shape[i])
		}
		off = off*t.shape[i] + c
	}
	return off, nil
}

// Shape returns the table's extents.
func (t *mergeTable) Shape() []int { return append([]int(nil), t.shape...) }

// Size returns the number of cells.
func (t *mergeTable) Size() int { return len(t.data) }

// At returns the cell at integer coordinates; like the library's dense
// tables it panics on bad coordinates (the server recovers lookups).
func (t *mergeTable) At(coords ...int) float64 {
	off, err := t.offsetOf(coords)
	if err != nil {
		panic(err.Error())
	}
	return t.data[off]
}

// Top returns the k largest cells, ties broken by ascending coordinates —
// the same contract as parcube.Table.Top, so sharded TOP answers match a
// single-node cube row for row.
func (t *mergeTable) Top(k int) []parcube.CellValue {
	out := make([]parcube.CellValue, 0, len(t.data))
	coords := make([]int, len(t.shape))
	for off := range t.data {
		out = append(out, parcube.CellValue{
			Coords: append([]int(nil), coords...),
			Value:  t.data[off],
		})
		for i := len(coords) - 1; i >= 0; i-- {
			coords[i]++
			if coords[i] < t.shape[i] {
				break
			}
			coords[i] = 0
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Value > out[j].Value })
	if k < len(out) {
		out = out[:k]
	}
	return out
}
