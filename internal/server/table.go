package server

import (
	"fmt"

	"parcube"
	"parcube/internal/array"
)

// Result is one answered group-by: a dense table over the retained
// dimensions, in schema order. It has two implementations: the cube's
// own *parcube.Table, which a single-cube server serves uncopied, and
// *Table, which everything else in the serving tier (the client, the
// coordinator, the query cache, durable nodes) hands around.
type Result interface {
	Shape() []int
	Size() int
	// At returns the cell at coordinates in Shape order; it panics on
	// coordinates outside the table (Lookup turns that into an error).
	At(coords ...int) float64
	// Top returns the k largest cells, largest first, ties by ascending
	// coordinates.
	Top(k int) []parcube.CellValue
	// Values returns a copy of the cells in row-major order.
	Values() []float64
}

// Table is the serving tier's group-by: the extents of the retained
// dimensions and the cells' values in row-major order, held as an
// array.Dense. A Table is read-only once built; the client decodes dense
// replies into one, the coordinator folds its nodes' replies into one,
// and the query cache keeps and projects the ones it is handed.
type Table array.Dense

// NewTable makes d a Table. d must not be modified afterwards.
func NewTable(d *array.Dense) *Table { return (*Table)(d) }

// TableOf returns r as a *Table: r itself when it is one, otherwise a copy
// of r's cells. A caller that keeps a result past a lock, or past later
// changes to the cube it came from, keeps TableOf's answer.
func TableOf(r Result) *Table {
	if t, ok := r.(*Table); ok {
		return t
	}
	return NewTable(array.Wrap(r.Shape(), r.Values()))
}

// Dense returns the table's array. Callers must not modify it.
func (t *Table) Dense() *array.Dense { return (*array.Dense)(t) }

// Shape returns the table's extents.
func (t *Table) Shape() []int { return append([]int(nil), t.Dense().Shape()...) }

// Size returns the number of cells.
func (t *Table) Size() int { return t.Dense().Size() }

// At returns the cell at integer coordinates; it panics on coordinates
// outside the table, like every Result.
func (t *Table) At(coords ...int) float64 { return t.Dense().At(coords...) }

// Values returns a copy of the cells in row-major order.
func (t *Table) Values() []float64 { return append([]float64(nil), t.Dense().Data()...) }

// Top returns the k largest cells, largest first, ties by ascending
// coordinates.
func (t *Table) Top(k int) []parcube.CellValue { return t.Dense().Top(k) }

// Lookup returns tbl's cell at coords, or an error where At would panic.
func Lookup(tbl Result, coords []int) (v float64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%v", rec)
		}
	}()
	return tbl.At(coords...), nil
}
