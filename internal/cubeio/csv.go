// Package cubeio moves datasets and cubes across process boundaries: CSV
// fact tables in and out, group-by results as CSV, and a versioned binary
// snapshot format for whole cubes.
package cubeio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"parcube/internal/array"
	"parcube/internal/lattice"
	"parcube/internal/nd"
)

// WriteCSV writes a sparse array as a fact table: a header with dimension
// names plus "value", then one row per stored cell with integer
// coordinates and the value.
func WriteCSV(w io.Writer, names []string, s *array.Sparse) error {
	rank := s.Shape().Rank()
	if len(names) != rank {
		return fmt.Errorf("cubeio: %d names for rank %d", len(names), rank)
	}
	cw := csv.NewWriter(w)
	header := append(append(make([]string, 0, rank+1), names...), "value")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, rank+1)
	var writeErr error
	s.Iter(func(coords []int, v float64) {
		if writeErr != nil {
			return
		}
		for i, c := range coords {
			row[i] = strconv.Itoa(c)
		}
		row[rank] = strconv.FormatFloat(v, 'g', -1, 64)
		writeErr = cw.Write(row)
	})
	if writeErr != nil {
		return writeErr
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a fact table written by WriteCSV (or hand-authored in the
// same layout) into a sparse array of the given shape. Rows whose
// coordinates repeat are summed. Returns the array and the header names.
func ReadCSV(r io.Reader, shape nd.Shape) (*array.Sparse, []string, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = shape.Rank() + 1
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("cubeio: reading header: %w", err)
	}
	names := header[:shape.Rank()]
	builder, err := array.NewSparseBuilder(shape, nil)
	if err != nil {
		return nil, nil, err
	}
	coords := make([]int, shape.Rank())
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A *csv.ParseError names its own line.
			return nil, nil, fmt.Errorf("cubeio: %w", err)
		}
		// Blank lines are skipped, so the line comes from the reader,
		// not from a record count.
		line, _ := cr.FieldPos(0)
		for i := range coords {
			c, err := strconv.Atoi(rec[i])
			if err != nil {
				return nil, nil, fmt.Errorf("cubeio: line %d, column %d: %w", line, i+1, err)
			}
			coords[i] = c
		}
		v, err := strconv.ParseFloat(rec[shape.Rank()], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("cubeio: line %d, value: %w", line, err)
		}
		if err := builder.Add(coords, v); err != nil {
			return nil, nil, fmt.Errorf("cubeio: line %d: %w", line, err)
		}
	}
	return builder.Build(), append([]string(nil), names...), nil
}

// WriteGroupByCSV writes one dense group-by as CSV: a header with the
// retained dimension names plus "value", then one row per cell.
func WriteGroupByCSV(w io.Writer, names []string, mask lattice.DimSet, a *array.Dense) error {
	dims := mask.Dims()
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(dims)+1)
	for _, d := range dims {
		if d < len(names) {
			header = append(header, names[d])
		} else {
			header = append(header, fmt.Sprintf("dim%d", d))
		}
	}
	header = append(header, "value")
	if err := cw.Write(header); err != nil {
		return err
	}
	shape := a.Shape()
	rank := shape.Rank()
	coords := make([]int, rank)
	row := make([]string, rank+1)
	for off := 0; off < a.Size(); off++ {
		shape.Coords(off, coords)
		for i, c := range coords {
			row[i] = strconv.Itoa(c)
		}
		row[rank] = strconv.FormatFloat(a.Data()[off], 'g', -1, 64)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
